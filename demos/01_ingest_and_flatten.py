"""Walkthrough: parsing raw business and review dumps into typed records.

The input files mimic the public Yelp JSON-lines format, including its
oddity that attribute values are Python-literal-style strings ("True",
"u'free'", "{'classy': True}"). The parsers stream one line at a time,
never abort on bad data, and account for every non-blank line in a
counter, so parsed + skipped always equals the line count.

Run from the repository root:  python demos/01_ingest_and_flatten.py
"""

import json
from pathlib import Path

from ratingsift import load_businesses, load_reviews, parse_attribute_value

DATA = Path(__file__).parent / "data"


def _dump_line(business_id):
    """The first line of the business dump that holds ``business_id``."""
    with open(DATA / "businesses.jsonl", encoding="utf-8") as handle:
        return next(line for line in handle if json.loads(line)["business_id"] == business_id)


def main():
    print("=== ingesting the sample business dump ===")
    businesses, counters = load_businesses(DATA / "businesses.jsonl")
    print(f"kept {len(businesses)} restaurants")
    for field, value in counters.as_dict().items():
        print(f"  {field:26s} {value}")

    print()
    print("=== one record, start to finish ===")
    record = businesses["canal_house"]
    print(f"{record.business_id}, overall {record.overall_stars} stars")
    # The record keeps only the flattened features; the raw strings are in
    # the dump's line for this business.
    raw_attributes = json.loads(_dump_line(record.business_id))["attributes"]
    print("raw attributes as they appear in the dump:")
    for attr, raw in sorted(raw_attributes.items())[:6]:
        parsed = parse_attribute_value(raw)
        print(f"  {attr:28s} {raw!r:44s} -> {parsed!r}")
    print(f"  ... {len(raw_attributes) - 6} more")
    print()
    print(f"flattened into {len(record.features)} canonical feature names:")
    print(" ", ", ".join(sorted(record.features)))

    print()
    print("=== reviews, validated against the loaded businesses ===")
    reviews, review_counters = load_reviews(
        DATA / "reviews.jsonl", known_business_ids=businesses
    )
    print(f"kept {len(reviews)} reviews")
    for field, value in review_counters.as_dict().items():
        print(f"  {field:26s} {value}")
    sample = reviews[0]
    print(f'example: {sample.stars} stars for {sample.business_id}: "{sample.text}"')


if __name__ == "__main__":
    main()
