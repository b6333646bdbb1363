"""Pairwise feature and sentiment comparison."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratingsift import (
    FAVORED_A,
    FAVORED_B,
    INCONCLUSIVE,
    DisparityReport,
    FeatureTaxonomy,
    alcohol_amenity_taxonomy,
    build_disparity_report,
    compare_features,
    render_text,
    sentiment_delta,
    verdict,
    weighted_deficiency,
)

from conftest import (
    REFERENCE_COMMON,
    REFERENCE_GAP,
    make_business,
)


class TestCompareFeatures:
    def test_reference_pair_sets(self, reference_pair):
        a, b = reference_pair
        common, missing_a, missing_b = compare_features(a, b)
        assert common == REFERENCE_COMMON
        assert missing_a == frozenset()
        assert missing_b == REFERENCE_GAP

    def test_symmetric_roles(self, reference_pair):
        a, b = reference_pair
        common_ab, miss_a_ab, miss_b_ab = compare_features(a, b)
        common_ba, miss_a_ba, miss_b_ba = compare_features(b, a)
        assert common_ab == common_ba
        assert miss_a_ab == miss_b_ba
        assert miss_b_ab == miss_a_ba

    def test_disjoint_output(self):
        a = make_business("a", {"wifi", "hastv"})
        b = make_business("b", {"wifi", "lot"})
        common, missing_a, missing_b = compare_features(a, b)
        assert common == {"wifi"}
        assert missing_a == {"lot"}
        assert missing_b == {"hastv"}
        assert not (common & missing_a or common & missing_b or missing_a & missing_b)


class TestWeightedDeficiency:
    def test_reference_gap_default_taxonomy(self):
        assert weighted_deficiency(REFERENCE_GAP) == pytest.approx(4.1, abs=1e-9)

    def test_reference_gap_variant_taxonomy(self):
        variant = alcohol_amenity_taxonomy()
        assert weighted_deficiency(REFERENCE_GAP, variant) == pytest.approx(3.80, abs=1e-9)

    def test_empty_gap(self):
        assert weighted_deficiency(frozenset()) == 0.0

    def test_equal_decimal_sums_tie(self):
        # a lacks alcohol, businessacceptscreditcards and caters (1.0 + 0.7 +
        # 0.7), b lacks bikeparking, garage and lot (3 x 0.8): 2.4 both ways,
        # so better sentiment alone cannot favor a.
        a = make_business("a", {"bikeparking", "garage", "lot"})
        b = make_business("b", {"alcohol", "businessacceptscreditcards", "caters"})
        report = build_disparity_report(a, b, {5: 3}, {5: 1})
        assert report.deficiency_a == report.deficiency_b == 2.4
        assert report.verdict == INCONCLUSIVE

    @given(st.lists(st.integers(0, 5_000_000), min_size=1, max_size=6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_decimal_sums_give_equal_deficiencies(self, micro_a, data):
        # Gap b splits the sum of gap a's weights, in millionths, at random
        # points; each feature is its own category.
        total = sum(micro_a)
        cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=5)))
        micro = [*micro_a, *(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))]
        taxonomy = FeatureTaxonomy(
            categories={f"c{i}": frozenset({f"f{i}"}) for i in range(len(micro))},
            weights={f"c{i}": m / 1_000_000 for i, m in enumerate(micro)},
        )
        gap_a = {f"f{i}" for i in range(len(micro_a))}
        gap_b = {f"f{i}" for i in range(len(micro_a), len(micro))}
        assert weighted_deficiency(gap_a, taxonomy) == weighted_deficiency(gap_b, taxonomy)


class TestSentimentDelta:
    def test_full_maps(self):
        delta, net = sentiment_delta(
            {1: -7, 2: 3, 3: 90, 4: 14, 5: 5},
            {1: 10, 2: 5, 3: 53, 4: 7, 5: 10},
        )
        assert delta == {1: -17, 2: -2, 3: 37, 4: 7, 5: -5}
        assert net == 20

    def test_missing_stars_count_as_zero(self):
        delta, net = sentiment_delta({5: 4}, {1: 3})
        assert delta == {1: -3, 2: 0, 3: 0, 4: 0, 5: 4}
        assert net == 1

    def test_antisymmetric(self):
        a = {1: 2, 3: -4, 5: 9}
        b = {2: 7, 3: 1}
        delta_ab, net_ab = sentiment_delta(a, b)
        delta_ba, net_ba = sentiment_delta(b, a)
        assert delta_ba == {s: -v for s, v in delta_ab.items()}
        assert net_ba == -net_ab


class TestVerdict:
    def test_favored_a(self):
        assert verdict(0.0, 4.1, 20) == FAVORED_A

    def test_favored_b(self):
        assert verdict(4.1, 0.0, -20) == FAVORED_B

    @pytest.mark.parametrize("deficiency_a,deficiency_b,net", [
        (0.0, 4.1, 0),     # sentiment tie
        (2.0, 2.0, 20),    # deficiency tie
        (0.0, 4.1, -3),    # signals disagree
        (4.1, 0.0, 3),     # signals disagree the other way
        (2.0, 2.0, 0),     # double tie
    ])
    def test_inconclusive(self, deficiency_a, deficiency_b, net):
        assert verdict(deficiency_a, deficiency_b, net) == INCONCLUSIVE


class TestReport:
    def _report(self, reference_pair):
        a, b = reference_pair
        return build_disparity_report(
            a, b,
            scores_a={1: -7, 2: 3, 3: 90, 4: 14, 5: 5},
            scores_b={1: 10, 2: 5, 3: 53, 4: 7, 5: 10},
        )

    def test_wiring(self, reference_pair):
        report = self._report(reference_pair)
        assert report.id_a == "ref_a"
        assert report.id_b == "ref_b"
        assert report.stars_a == 4.0
        assert report.stars_b == 2.5
        assert report.deficiency_a == 0.0
        assert report.deficiency_b == pytest.approx(4.1)
        assert report.net == 20
        assert report.verdict == FAVORED_A

    def test_json_has_exactly_the_report_fields_in_order(self, reference_pair):
        payload = self._report(reference_pair).to_json_dict()
        assert list(payload) == [
            "id_a", "id_b", "stars_a", "stars_b",
            "common", "missing_a", "missing_b",
            "deficiency_a", "deficiency_b",
            "sentiment_a", "sentiment_b", "delta", "net", "verdict",
        ]

    def test_json_sets_sorted(self, reference_pair):
        payload = self._report(reference_pair).to_json_dict()
        assert payload["common"] == sorted(REFERENCE_COMMON)
        assert payload["missing_b"] == sorted(REFERENCE_GAP)

    def test_json_round_trips_through_dumps(self, reference_pair):
        text = self._report(reference_pair).to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["net"] == 20

    def test_absent_star_flagged_by_omission(self, reference_pair):
        a, b = reference_pair
        report = build_disparity_report(a, b, scores_a={3: 10}, scores_b={})
        payload = report.to_json_dict()
        assert payload["sentiment_a"] == {"3": 10}
        assert payload["sentiment_b"] == {}
        # the delta still covers every star level
        assert list(payload["delta"]) == ["1", "2", "3", "4", "5"]

    def test_render_text_marks_missing_stars(self, reference_pair):
        a, b = reference_pair
        report = build_disparity_report(a, b, scores_a={3: 10}, scores_b={3: 4})
        text = render_text(report)
        assert "n/a" in text
        assert "verdict:" in text
        assert "ref_a" in text and "ref_b" in text

    def test_render_text_reference_values(self, reference_pair):
        text = render_text(self._report(reference_pair))
        assert "net sentiment: 20" in text
        assert "4.10" in text

    def test_swap_antisymmetry(self, reference_pair):
        a, b = reference_pair
        scores_a = {1: -7, 3: 90}
        scores_b = {3: 53, 5: 2}
        fwd = build_disparity_report(a, b, scores_a, scores_b)
        rev = build_disparity_report(b, a, scores_b, scores_a)
        assert (rev.id_a, rev.id_b) == (fwd.id_b, fwd.id_a)
        assert rev.common == fwd.common
        assert rev.missing_a == fwd.missing_b
        assert rev.missing_b == fwd.missing_a
        assert rev.deficiency_a == fwd.deficiency_b
        assert rev.deficiency_b == fwd.deficiency_a
        assert rev.delta == {s: -v for s, v in fwd.delta.items()}
        assert rev.net == -fwd.net
        expected = {FAVORED_A: FAVORED_B, FAVORED_B: FAVORED_A,
                    INCONCLUSIVE: INCONCLUSIVE}[fwd.verdict]
        assert rev.verdict == expected

    def test_report_is_immutable(self, reference_pair):
        report = self._report(reference_pair)
        with pytest.raises(AttributeError):
            report.net = 0

    def test_taxonomy_choice_changes_deficiency(self, reference_pair):
        a, b = reference_pair
        report = build_disparity_report(
            a, b, {}, {}, taxonomy=alcohol_amenity_taxonomy(),
        )
        assert report.deficiency_b == pytest.approx(3.80)

    def test_report_type_is_frozen_dataclass(self, reference_pair):
        assert isinstance(self._report(reference_pair), DisparityReport)
