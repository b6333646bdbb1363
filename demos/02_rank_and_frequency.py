"""Walkthrough: ranking restaurants by listed features.

Every feature belongs to one of four weighted categories (food 1.0,
parking 0.8, amenities 0.7, qualities 0.6). Restaurants are ordered by
how many features they list; the weighted score rides along for
reporting. Ties break by business id, so the ranking is a total order
and reruns can never reshuffle it.

Run from the repository root:  python demos/02_rank_and_frequency.py
"""

from pathlib import Path

from ratingsift import (
    DEFAULT_TAXONOMY,
    feature_frequency,
    load_businesses,
    rank_restaurants,
)

DATA = Path(__file__).parent / "data"


def main():
    businesses, _ = load_businesses(DATA / "businesses.jsonl")

    print("=== the feature taxonomy ===")
    for category in sorted(DEFAULT_TAXONOMY.categories):
        members = sorted(DEFAULT_TAXONOMY.categories[category])
        weight = DEFAULT_TAXONOMY.weights[category]
        print(f"[{category}] weight {weight}")
        print(f"  {', '.join(members)}")
    print(f"universe: {len(DEFAULT_TAXONOMY.universe)} feature names")

    print()
    print("=== ranking by feature count (cutoff 4 keeps the top four) ===")
    ranked = rank_restaurants(businesses.values(), cutoff=4)
    print(f"{'rank':>4}  {'business':22s} {'features':>8}  {'weighted':>8}")
    for position, entry in enumerate(ranked.entries, start=1):
        print(f"{position:>4}  {entry.business_id:22s} "
              f"{entry.feature_count:>8}  {entry.weighted_score:>8.2f}")

    print()
    print("=== how common is each feature inside that cohort? ===")
    frequency = feature_frequency(ranked, businesses)
    held = sorted(frequency.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, count in held[:10]:
        category = DEFAULT_TAXONOMY.category_of(name)
        print(f"  {name:28s} {count}/{len(ranked.entries)}  ({category})")
    absent = sum(1 for count in frequency.values() if count == 0)
    print(f"  ... plus {absent} universe features that no cohort member lists")


if __name__ == "__main__":
    main()
