"""Walkthrough: the pairwise disparity report.

Two restaurants are compared on two independent signals. First, listed
features: which they share, which each lacks, and the weighted cost of
each gap. Second, review tone: per-star sentiment differences and their
sum (the net). The verdict only favors a restaurant when both signals
agree strictly; any tie or disagreement stays inconclusive.

Run from the repository root:  python demos/04_pairwise_disparity.py
"""

from pathlib import Path

from ratingsift import (
    CorpusStats,
    SentimentLexicon,
    alcohol_amenity_taxonomy,
    build_disparity_report,
    build_star_documents,
    build_topic_profiles,
    load_businesses,
    load_reviews,
    rank_restaurants,
    render_text,
    weighted_deficiency,
)

DATA = Path(__file__).parent / "data"


def main():
    businesses, _ = load_businesses(DATA / "businesses.jsonl")
    reviews, _ = load_reviews(DATA / "reviews.jsonl", known_business_ids=businesses)
    lexicon = SentimentLexicon.load(DATA / "lexicon.txt")

    # corpus statistics come from the full cohort and are then frozen, so a
    # pairwise comparison scores against the same baseline as everyone else
    cohort = rank_restaurants(businesses.values()).business_ids()
    stats = CorpusStats.from_documents(build_star_documents(reviews, cohort))

    pair = ("canal_house", "dockside_grill")
    documents = build_star_documents(reviews, pair)
    profiles = build_topic_profiles(documents, stats, k=6, lexicon=lexicon)
    report = build_disparity_report(
        businesses[pair[0]],
        businesses[pair[1]],
        scores_a={p.stars: p.sentiment_score for p in profiles if p.business_id == pair[0]},
        scores_b={p.stars: p.sentiment_score for p in profiles if p.business_id == pair[1]},
    )

    print(render_text(report))

    print("=== the same gap under a different taxonomy ===")
    variant = alcohol_amenity_taxonomy()
    print("moving alcohol from food (weight 1.0) to amenities (weight 0.7):")
    print(f"  default taxonomy deficiency: {weighted_deficiency(report.missing_b):.2f}")
    print(f"  variant taxonomy deficiency: "
          f"{weighted_deficiency(report.missing_b, variant):.2f}")

    print()
    print("=== machine-readable form ===")
    print(report.to_json(), end="")


if __name__ == "__main__":
    main()
