"""Acceptance suite.

Ten criteria covering the worked-example fixture, oracle equivalence for
the numeric kernels, randomized structural properties, scale, and
end-to-end determinism. Each test prints exactly one pass/fail line
(straight to the terminal, bypassing capture) with its elapsed time; the
stated time budgets are asserted, not aspirational.
"""

import json
import math
import random
import time
import tracemalloc
from contextlib import contextmanager

import pytest

from ratingsift import (
    CorpusStats,
    DEFAULT_TAXONOMY,
    SentimentLexicon,
    StarDocument,
    alcohol_amenity_taxonomy,
    build_disparity_report,
    build_star_documents,
    build_topic_profiles,
    cohort_scores,
    compare_features,
    parse_businesses,
    parse_reviews,
    rank_restaurants,
    sentiment_delta,
    sentiment_score,
    tfidf,
    top_terms,
    verdict,
    weighted_deficiency,
)
from ratingsift.cli import main
from ratingsift.disparity import FAVORED_A, FAVORED_B, INCONCLUSIVE
from ratingsift.ingest import ReviewCounters

from conftest import (
    REFERENCE_A_FEATURES,
    REFERENCE_B_FEATURES,
    REFERENCE_COMMON,
    REFERENCE_GAP,
    attributes_for,
    business_line,
    make_business,
    make_review,
    review_line,
)

UNIVERSE = sorted(DEFAULT_TAXONOMY.universe)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, summary, budget_seconds):
        start = time.perf_counter()
        status = "FAIL"
        try:
            yield
            elapsed = time.perf_counter() - start
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
            status = "PASS"
        finally:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"[criterion {number:02d}] {status}: {summary} ({elapsed:.2f}s)")

    return _criterion


def test_criterion_01_worked_example_feature_sets(criterion):
    with criterion(1, "worked-example pair: exact common and missing feature sets", 1.0):
        lines = [
            business_line("ref_a", stars=4.0,
                          attributes=attributes_for(REFERENCE_A_FEATURES)),
            business_line("ref_b", stars=2.5,
                          attributes=attributes_for(REFERENCE_B_FEATURES)),
        ]
        a, b = list(parse_businesses(lines))
        assert a.features == REFERENCE_A_FEATURES
        assert b.features == REFERENCE_B_FEATURES
        common, missing_a, missing_b = compare_features(a, b)
        assert common == REFERENCE_COMMON
        assert len(common) == 14
        assert missing_a == frozenset()
        assert missing_b == REFERENCE_GAP
        assert missing_b == {
            "alcohol", "wifi", "outdoorseating", "restaurantsdelivery", "brunch",
        }


def test_criterion_02_weighted_deficiency_values(criterion):
    with criterion(2, "weighted deficiency 4.1 default, 3.80 variant", 1.0):
        assert weighted_deficiency(REFERENCE_GAP, DEFAULT_TAXONOMY) == pytest.approx(
            4.1, abs=1e-9
        )
        assert weighted_deficiency(REFERENCE_GAP, alcohol_amenity_taxonomy()) == pytest.approx(
            3.80, abs=1e-9
        )


def test_criterion_03_net_sentiment_arithmetic(criterion):
    with criterion(3, "per-star deltas sum to net 20; 3-star ratio near 1.698", 1.0):
        score_a = {1: -7, 2: 3, 3: 90, 4: 14, 5: 5}
        score_b = {1: 10, 2: 5, 3: 53, 4: 7, 5: 10}
        delta, net = sentiment_delta(score_a, score_b)
        assert delta == {1: -17, 2: -2, 3: 37, 4: 7, 5: -5}
        assert net == 20
        # three-star cross-check: a's score against what b must then be
        assert score_a[3] - delta[3] == 53
        ratio = score_a[3] / (score_a[3] - delta[3])
        assert ratio == pytest.approx(1.698, abs=5e-4)
        assert math.floor(ratio * 100) / 100 == 1.69


def test_criterion_04_tfidf_oracle_equivalence(criterion):
    with criterion(4, "tf-idf and top-terms match brute-force oracle on 200 corpora", 10.0):
        rng = random.Random(40400)
        for _ in range(200):
            n_docs = rng.randint(1, 5)
            vocab = [f"term{i:02d}" for i in range(rng.randint(1, 30))]
            corpus = []
            for i in range(n_docs):
                size = rng.randint(0, len(vocab))
                counts = {t: rng.randint(1, 9) for t in rng.sample(vocab, size)}
                corpus.append(
                    StarDocument(business_id=f"b{i}", stars=1 + i % 5,
                                 term_counts=counts)
                )
            stats = CorpusStats.from_documents(corpus)
            for doc in corpus:
                oracle = {}
                for term in vocab:
                    count = doc.term_counts.get(term, 0)
                    df = sum(
                        1 for d in corpus if d.term_counts.get(term, 0) > 0
                    )
                    if count > 0 and df > 0:
                        oracle[term] = count * math.log(n_docs / df)
                    else:
                        oracle[term] = 0.0
                    got = tfidf(term, doc, corpus)
                    assert abs(got - oracle[term]) <= 1e-12
                    assert abs(stats.tfidf(term, doc) - oracle[term]) <= 1e-12
                expected_top = sorted(
                    ((t, w) for t, w in oracle.items() if w > 0),
                    key=lambda tw: (-tw[1], tw[0]),
                )[:7]
                got_top = top_terms(doc, stats, k=7)
                assert [t for t, _ in got_top] == [t for t, _ in expected_top]
                for (_, got_w), (_, want_w) in zip(got_top, expected_top):
                    assert abs(got_w - want_w) <= 1e-12


def test_criterion_05_sentiment_oracle_equivalence(criterion):
    with criterion(5, "sentiment score matches direct-sum oracle on 200 topic sets", 5.0):
        rng = random.Random(50500)
        vocab = [f"word{i:02d}" for i in range(80)]
        entries = {t: rng.randint(-5, 5) for t in rng.sample(vocab, 50)}
        lexicon = SentimentLexicon(entries=entries)
        assert len(lexicon) == 50
        for _ in range(200):
            terms = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
            expected = sum(entries.get(t, 0) for t in set(terms))
            assert sentiment_score(terms, lexicon) == expected


def test_criterion_06_ranking_properties(criterion):
    with criterion(6, "ranking: permutation-invariant, total order, monotone", 10.0):
        rng = random.Random(60600)
        for _ in range(100):
            n = rng.randint(1, 200)
            businesses = [
                make_business(
                    f"b{i:03d}",
                    rng.sample(UNIVERSE, rng.randint(0, len(UNIVERSE))),
                )
                for i in range(n)
            ]
            baseline = rank_restaurants(businesses)
            ids = baseline.business_ids()

            # permutation invariance
            shuffled = list(businesses)
            rng.shuffle(shuffled)
            assert rank_restaurants(shuffled).business_ids() == ids

            # deterministic tie-breaking: strict total order on (count, id)
            entries = baseline.entries
            for left, right in zip(entries, entries[1:]):
                assert (
                    left.feature_count > right.feature_count
                    or (left.feature_count == right.feature_count
                        and left.business_id < right.business_id)
                )

            # add-a-feature monotonicity
            candidates = [b for b in businesses if len(b.features) < len(UNIVERSE)]
            if candidates:
                chosen = rng.choice(candidates)
                extra = rng.choice([f for f in UNIVERSE if f not in chosen.features])
                upgraded = [
                    make_business(b.business_id, set(b.features) | {extra})
                    if b.business_id == chosen.business_id else b
                    for b in businesses
                ]
                new_ids = rank_restaurants(upgraded).business_ids()
                assert new_ids.index(chosen.business_id) <= ids.index(chosen.business_id)


def test_criterion_07_disparity_antisymmetry(criterion):
    with criterion(7, "swapping a disparity pair swaps or negates every field", 5.0):
        rng = random.Random(70700)
        mirror = {FAVORED_A: FAVORED_B, FAVORED_B: FAVORED_A,
                  INCONCLUSIVE: INCONCLUSIVE}
        for i in range(100):
            a = make_business(
                f"a{i:03d}", rng.sample(UNIVERSE, rng.randint(0, len(UNIVERSE))),
                stars=rng.choice([1.0, 2.0, 3.0, 4.0, 5.0]),
            )
            b = make_business(
                f"b{i:03d}", rng.sample(UNIVERSE, rng.randint(0, len(UNIVERSE))),
                stars=rng.choice([1.0, 2.0, 3.0, 4.0, 5.0]),
            )
            scores_a = {s: rng.randint(-50, 50)
                        for s in rng.sample([1, 2, 3, 4, 5], rng.randint(0, 5))}
            scores_b = {s: rng.randint(-50, 50)
                        for s in rng.sample([1, 2, 3, 4, 5], rng.randint(0, 5))}
            fwd = build_disparity_report(a, b, scores_a, scores_b)
            rev = build_disparity_report(b, a, scores_b, scores_a)
            assert (rev.id_a, rev.id_b) == (fwd.id_b, fwd.id_a)
            assert (rev.stars_a, rev.stars_b) == (fwd.stars_b, fwd.stars_a)
            assert rev.common == fwd.common
            assert rev.missing_a == fwd.missing_b
            assert rev.missing_b == fwd.missing_a
            assert rev.deficiency_a == fwd.deficiency_b
            assert rev.deficiency_b == fwd.deficiency_a
            assert rev.sentiment_a == fwd.sentiment_b
            assert rev.sentiment_b == fwd.sentiment_a
            assert rev.delta == {s: -v for s, v in fwd.delta.items()}
            assert rev.net == -fwd.net
            assert rev.verdict == mirror[fwd.verdict]
            assert verdict(rev.deficiency_a, rev.deficiency_b, rev.net) == rev.verdict


def test_criterion_08_cohort_scores_increase_with_stars(criterion):
    with criterion(8, "polarized cohort: combined score strictly increasing in stars", 5.0):
        star_words = {
            1: [("dreadful", -4), ("disgusting", -4), ("atrocious", -4)],
            2: [("unpleasant", -3), ("mediocre", -3)],
            3: [("decent", 1)],
            4: [("enjoyable", 3), ("pleasant", 3)],
            5: [("superb", 4), ("fantastic", 4), ("exquisite", 4)],
        }
        lexicon = SentimentLexicon(
            entries={w: v for words in star_words.values() for w, v in words}
        )
        cohort_ids = ["rsta", "rstb", "rstc"]
        reviews = []
        for business_id in cohort_ids:
            for stars, words in star_words.items():
                text = " ".join(w for w, _ in words)
                reviews.append(make_review(business_id, stars, text))
        documents = build_star_documents(reviews, cohort_ids)
        stats = CorpusStats.from_documents(documents)
        profiles = build_topic_profiles(documents, stats, k=10, lexicon=lexicon)
        scores = cohort_scores(profiles)
        assert sorted(scores.combined) == [1, 2, 3, 4, 5]
        values = [scores.combined[s] for s in (1, 2, 3, 4, 5)]
        assert all(lo < hi for lo, hi in zip(values, values[1:])), values


def test_criterion_09_ingestion_scale_and_robustness(criterion, tmp_path):
    business_path = tmp_path / "business.json"
    review_path = tmp_path / "review.json"
    business_ids = ["big0", "big1", "big2"]
    business_path.write_text(
        "".join(
            business_line(bid, attributes=attributes_for({"wifi", "hastv"})) + "\n"
            for bid in business_ids
        ),
        encoding="utf-8",
    )
    total = 100_000
    malformed_every = 100
    with open(review_path, "w", encoding="utf-8") as handle:
        for i in range(total):
            if i % malformed_every == 0:
                handle.write('{"review_id": "r%d", busted\n' % i)
            else:
                handle.write(
                    review_line(
                        f"r{i:06d}", business_ids[i % 3], 1 + i % 5,
                        "quick tasty lunch with friendly service number %d" % i,
                    )
                    + "\n"
                )

    with criterion(9, "100k review lines: bounded memory, exact counters, exit 0", 60.0):
        # streaming pass: memory stays far below the 20+ MB file size
        counters = ReviewCounters()
        tracemalloc.start()
        with open(review_path, "rb") as handle:
            for _ in parse_reviews(handle, set(business_ids), counters):
                pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 1024 * 1024, f"streaming peak {peak} bytes"
        expected_malformed = total // malformed_every
        assert counters.parsed == total - expected_malformed
        assert counters.skipped_malformed == expected_malformed
        assert counters.parsed + counters.skipped_malformed == total

        # the same file through the pipeline front end
        workspace = tmp_path / "ws"
        code = main([
            "ingest", "--business", str(business_path),
            "--reviews", str(review_path), "--workspace", str(workspace),
        ])
        assert code == 0
        manifest = json.loads((workspace / "manifest.json").read_text())
        summary = manifest["stages"]["ingest"]
        assert summary["reviews"]["parsed"] == total - expected_malformed
        assert summary["reviews"]["skipped_malformed"] == expected_malformed


def test_criterion_10_end_to_end_determinism(criterion, tmp_path, lexicon_file, capsys):
    business_path = tmp_path / "business.json"
    review_path = tmp_path / "review.json"
    businesses = [
        business_line("ref_a", stars=4.0, attributes=attributes_for(REFERENCE_A_FEATURES)),
        business_line("ref_b", stars=2.5, attributes=attributes_for(REFERENCE_B_FEATURES)),
        business_line("other1", stars=3.0, attributes=attributes_for({"wifi", "lot"})),
    ]
    business_path.write_text("\n".join(businesses) + "\n", encoding="utf-8")
    texts = {
        1: "awful horrible experience", 2: "slow bland dinner",
        3: "food was fine", 4: "tasty fresh plates", 5: "amazing wonderful pasta",
    }
    lines = []
    rid = 0
    for business_id in ("ref_a", "ref_b", "other1"):
        for stars, text in texts.items():
            lines.append(review_line(f"r{rid:03d}", business_id, stars, text))
            rid += 1
    review_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    workspace = tmp_path / "ws"

    def run_once():
        for argv in (
            ["ingest", "--business", str(business_path), "--reviews",
             str(review_path), "--workspace", str(workspace)],
            ["rank", "--workspace", str(workspace), "--cutoff", "0"],
            ["score", "--workspace", str(workspace), "--lexicon",
             str(lexicon_file), "--k", "10"],
            ["compare", "--workspace", str(workspace), "--a", "ref_a",
             "--b", "ref_b"],
        ):
            assert main(argv) == 0
        stdout = capsys.readouterr().out
        artifacts = {
            p.name: p.read_bytes()
            for p in sorted(workspace.iterdir()) if p.is_file()
        }
        return artifacts, stdout

    with criterion(10, "two pipeline runs produce byte-identical artifacts", 30.0):
        first_artifacts, first_stdout = run_once()
        second_artifacts, second_stdout = run_once()
        assert sorted(first_artifacts) == sorted(second_artifacts)
        for name in first_artifacts:
            assert first_artifacts[name] == second_artifacts[name], name
        assert first_stdout == second_stdout
