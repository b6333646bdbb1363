"""Feature taxonomy, weighted scoring, and ranking."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratingsift import (
    DEFAULT_TAXONOMY,
    FeatureTaxonomy,
    RankedList,
    UnknownFeatureError,
    alcohol_amenity_taxonomy,
    feature_frequency,
    rank_restaurants,
    weighted_feature_score,
)

from conftest import make_business

UNIVERSE = sorted(DEFAULT_TAXONOMY.universe)


def _weight(taxonomy, name):
    return taxonomy.weights[taxonomy.category_of(name)]


class TestDefaultTaxonomy:
    def test_universe_size(self):
        assert len(DEFAULT_TAXONOMY.universe) == 36

    def test_category_sizes(self):
        sizes = {c: len(v) for c, v in DEFAULT_TAXONOMY.categories.items()}
        assert sizes == {"food": 8, "parking": 6, "amenities": 10, "qualities": 12}

    def test_weights(self):
        assert DEFAULT_TAXONOMY.weights == {
            "food": 1.0, "parking": 0.8, "amenities": 0.7, "qualities": 0.6,
        }

    def test_category_lookup(self):
        assert DEFAULT_TAXONOMY.category_of("alcohol") == "food"
        assert DEFAULT_TAXONOMY.category_of("valet") == "parking"
        assert DEFAULT_TAXONOMY.category_of("wifi") == "amenities"
        assert DEFAULT_TAXONOMY.category_of("hipster") == "qualities"

    def test_weight_lookup(self):
        assert _weight(DEFAULT_TAXONOMY, "dinner") == 1.0
        assert _weight(DEFAULT_TAXONOMY, "garage") == 0.8

    def test_unknown_feature_raises(self):
        with pytest.raises(UnknownFeatureError):
            DEFAULT_TAXONOMY.category_of("petfriendly")

    def test_unknown_error_is_value_error(self):
        assert issubclass(UnknownFeatureError, ValueError)


class TestValidation:
    def test_overlapping_categories_rejected(self):
        with pytest.raises(ValueError):
            FeatureTaxonomy(
                categories={"x": frozenset({"wifi"}), "y": frozenset({"wifi"})},
                weights={"x": 1.0, "y": 1.0},
            )

    def test_weight_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureTaxonomy(
                categories={"x": frozenset({"wifi"})},
                weights={"x": 1.0, "y": 2.0},
            )

    @pytest.mark.parametrize("weight", [-0.1, float("nan"), float("inf"), float("-inf"),
                                        1.0000004],
                             ids=["-0.1", "nan", "inf", "-inf", "1.0000004"])
    def test_negative_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            FeatureTaxonomy(
                categories={"x": frozenset({"wifi"})}, weights={"x": weight},
            )

    def test_non_lowercase_name_rejected(self):
        with pytest.raises(ValueError):
            FeatureTaxonomy(
                categories={"x": frozenset({"WiFi"})}, weights={"x": 1.0},
            )

    @pytest.mark.parametrize("name", ["", " ", " food", "food ", "Food", "fo\nod", "fo\rod"],
                             ids=["empty", "blank", "leading_space", "trailing_space",
                                  "uppercase", "newline", "carriage_return"])
    def test_unreadable_category_name_rejected(self, name):
        with pytest.raises(ValueError, match="category name"):
            FeatureTaxonomy(categories={name: frozenset({"wifi"})}, weights={name: 1.0})

    @pytest.mark.parametrize("name", ["", "wi fi", "wi\tfi", "wi\nfi"],
                             ids=["empty", "space", "tab", "newline"])
    def test_unreadable_feature_name_rejected(self, name):
        with pytest.raises(ValueError, match="feature name"):
            FeatureTaxonomy(categories={"x": frozenset({name})}, weights={"x": 1.0})

    def test_category_name_with_inner_space_accepted(self):
        taxonomy = FeatureTaxonomy(categories={"food and drink": frozenset({"wifi"})},
                                   weights={"food and drink": 1.0})
        assert FeatureTaxonomy.loads(taxonomy.dumps()) == taxonomy

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            FeatureTaxonomy(
                categories={"x": frozenset()}, weights={"x": 1.0},
            )

    @pytest.mark.parametrize("text", [
        "",
        "weight = 1.0\nfeatures = wifi\n",
        "[food]\nfeatures = wifi\n",
        "[food]\nweight = heavy\nfeatures = wifi\n",
    ], ids=["empty", "no_section_header", "missing_weight", "non_numeric_weight"])
    def test_bad_config_rejected(self, text):
        with pytest.raises(ValueError):
            FeatureTaxonomy.loads(text)

    def test_categories_differing_in_case_rejected(self):
        with pytest.raises(ValueError, match="'food'"):
            FeatureTaxonomy.loads(
                "[Food]\nweight=1\nfeatures=wifi\n[food]\nweight=0.5\nfeatures=lot\n"
            )

    def test_percent_is_read_literally(self):
        taxonomy = FeatureTaxonomy.loads("[food]\nweight = 1\nfeatures = wi%fi %%\n")
        assert taxonomy.categories == {"food": frozenset({"wi%fi", "%%"})}


class TestConfigRoundTrip:
    def test_dumps_loads_round_trip(self):
        text = DEFAULT_TAXONOMY.dumps()
        again = FeatureTaxonomy.loads(text)
        assert again.categories == dict(DEFAULT_TAXONOMY.categories)
        assert again.weights == dict(DEFAULT_TAXONOMY.weights)

    def test_dumps_is_canonical(self):
        text = DEFAULT_TAXONOMY.dumps()
        assert FeatureTaxonomy.loads(text).dumps() == text
        # sections appear in sorted order
        sections = [l for l in text.splitlines() if l.startswith("[")]
        assert sections == sorted(sections)

    def test_config_hash_stable_and_sensitive(self):
        base = DEFAULT_TAXONOMY.dumps()
        assert base == DEFAULT_TAXONOMY.dumps()
        tweaked = FeatureTaxonomy(
            categories=dict(DEFAULT_TAXONOMY.categories),
            weights={**DEFAULT_TAXONOMY.weights, "food": 0.9},
        )
        assert tweaked.dumps() != base

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "tax.cfg"
        path.write_text(DEFAULT_TAXONOMY.dumps(), encoding="utf-8")
        loaded = FeatureTaxonomy.load(path)
        assert loaded == DEFAULT_TAXONOMY
        assert loaded.dumps() == DEFAULT_TAXONOMY.dumps()

    @given(
        st.dictionaries(
            # Any text, or text with neither capitals nor control characters
            # (and, for features, no separators), which the constructor
            # accepts more often.
            st.text(st.characters(exclude_categories=("Lu", "Lt", "Cc")), min_size=1,
                    max_size=8) | st.text(max_size=8),
            st.tuples(
                st.frozensets(
                    st.text(st.characters(exclude_categories=("Lu", "Lt", "Z", "Cc")),
                            min_size=1, max_size=6) | st.text(max_size=6),
                    min_size=1, max_size=3,
                ),
                st.integers(min_value=0, max_value=10**9).map(lambda m: m / 1_000_000),
            ),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_taxonomy_reads_back(self, spec):
        try:
            taxonomy = FeatureTaxonomy(
                categories={c: names for c, (names, _) in spec.items()},
                weights={c: weight for c, (_, weight) in spec.items()},
            )
        except ValueError:
            return  # rejected at construction, so never written
        assert FeatureTaxonomy.loads(taxonomy.dumps()) == taxonomy

    def test_load_accepts_byte_order_mark(self, tmp_path):
        path = tmp_path / "tax.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + DEFAULT_TAXONOMY.dumps().encode("utf-8"))
        assert FeatureTaxonomy.load(path) == DEFAULT_TAXONOMY


class TestVariantTaxonomy:
    def test_alcohol_moves_to_amenities(self):
        variant = alcohol_amenity_taxonomy()
        assert variant.category_of("alcohol") == "amenities"
        assert DEFAULT_TAXONOMY.category_of("alcohol") == "food"

    def test_same_universe(self):
        assert alcohol_amenity_taxonomy().universe == DEFAULT_TAXONOMY.universe

    @pytest.mark.parametrize("taxonomy", [DEFAULT_TAXONOMY, alcohol_amenity_taxonomy()],
                             ids=["default", "alcohol_amenity"])
    def test_lookups_agree_with_categories(self, taxonomy):
        owners = {name: c for c, names in taxonomy.categories.items() for name in names}
        assert taxonomy.universe == frozenset(owners)
        assert {name: taxonomy.category_of(name) for name in owners} == owners

    def test_only_alcohol_differs(self):
        variant = alcohol_amenity_taxonomy()
        moved = [
            name for name in UNIVERSE
            if variant.category_of(name) != DEFAULT_TAXONOMY.category_of(name)
        ]
        assert moved == ["alcohol"]


class TestWeightedScore:
    def test_empty_is_zero(self):
        assert weighted_feature_score(frozenset()) == 0.0

    def test_full_universe_score(self):
        # 8*1.0 + 6*0.8 + 10*0.7 + 12*0.6
        assert weighted_feature_score(DEFAULT_TAXONOMY.universe) == pytest.approx(27.0)

    def test_single_feature(self):
        assert weighted_feature_score({"wifi"}) == pytest.approx(0.7)

    def test_unknown_feature_raises(self):
        with pytest.raises(UnknownFeatureError):
            weighted_feature_score({"wifi", "petfriendly"})

    def test_iteration_order_does_not_matter(self):
        names = ["alcohol", "wifi", "lot", "casual", "dinner", "hastv"]
        forward = weighted_feature_score(names)
        backward = weighted_feature_score(list(reversed(names)))
        assert forward == backward

    @given(st.sets(st.sampled_from(UNIVERSE)))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_name_sum(self, names):
        expected = math.fsum(_weight(DEFAULT_TAXONOMY, n) for n in sorted(names))
        assert weighted_feature_score(names) == pytest.approx(expected, abs=1e-12)


def _ranked_ids(businesses, **kwargs):
    return rank_restaurants(businesses, **kwargs).business_ids()


class TestRanking:
    def test_orders_by_feature_count_desc(self):
        businesses = [
            make_business("b1", {"wifi"}),
            make_business("b2", {"wifi", "hastv", "lot"}),
            make_business("b3", {"wifi", "hastv"}),
        ]
        assert _ranked_ids(businesses) == ["b2", "b3", "b1"]

    def test_ties_break_by_id(self):
        businesses = [
            make_business("zzz", {"wifi", "lot"}),
            make_business("aaa", {"hastv", "casual"}),
            make_business("mmm", {"dinner", "valet"}),
        ]
        assert _ranked_ids(businesses) == ["aaa", "mmm", "zzz"]

    def test_cutoff_truncates(self):
        businesses = [make_business(f"b{i}", set(UNIVERSE[:i + 1])) for i in range(6)]
        ranked = rank_restaurants(businesses, cutoff=2)
        assert len(ranked.entries) == 2
        assert ranked.business_ids() == ["b5", "b4"]

    def test_cutoff_zero_keeps_all(self):
        businesses = [make_business(f"b{i}", {"wifi"}) for i in range(5)]
        assert len(rank_restaurants(businesses, cutoff=0).entries) == 5

    def test_entries_carry_weighted_score(self):
        ranked = rank_restaurants([make_business("b1", {"wifi", "dinner"})])
        entry = ranked.entries[0]
        assert entry.feature_count == 2
        assert entry.weighted_score == pytest.approx(1.7)

    def test_result_type(self):
        assert isinstance(rank_restaurants([]), RankedList)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=999),
                st.sets(st.sampled_from(UNIVERSE)),
            ),
            max_size=30,
        ),
        st.randoms(),
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, raw, rng):
        businesses = [make_business(f"b{i:03d}", feats) for i, (_, feats) in enumerate(raw)]
        baseline = _ranked_ids(businesses)
        shuffled = list(businesses)
        rng.shuffle(shuffled)
        assert _ranked_ids(shuffled) == baseline


class TestFeatureFrequency:
    def test_counts_only_ranked_cohort(self):
        businesses = {
            "b1": make_business("b1", {"wifi", "hastv"}),
            "b2": make_business("b2", {"wifi"}),
            "b3": make_business("b3", {"wifi", "hastv", "lot"}),
        }
        ranked = rank_restaurants(businesses.values(), cutoff=2)
        freq = feature_frequency(ranked, businesses)
        assert freq["wifi"] == 2
        assert freq["hastv"] == 2
        assert freq["lot"] == 1

    def test_covers_whole_universe_with_zeros(self):
        businesses = {"b1": make_business("b1", {"wifi"})}
        ranked = rank_restaurants(businesses.values())
        freq = feature_frequency(ranked, businesses)
        assert set(freq) == set(UNIVERSE)
        assert freq["valet"] == 0
