"""The benchmark's workloads: corpus shape and CLI flags for each.

Why each workload exists, which layers it loads and which it bypasses, is
written out in README.md beside this file.

No real Yelp dump is in the repository, so every rate below is an assumed
value, not a measured one. The comment beside each says why it was chosen.
"""

from dataclasses import dataclass, replace

from generate import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    full: Shape
    cutoff: int

    def shape(self, scale: str) -> Shape:
        if scale == "full":
            return self.full
        return replace(self.full, restaurants=max(20, self.full.restaurants // 50))


WORKLOADS = {
    w.name: w
    for w in (
        # A clean review dump: every quirk kept to a few percent, so its
        # path runs and its counter is checked, but costs little time.
        Workload(
            name="reviews",
            full=Shape(restaurants=150, reviews_per_business=(25, 75),
                       tokens_per_review=(40, 80), vocabulary=20000,
                       full_attributes=0.9, bare_key_maps=0.05, unparseable=0.02,
                       unknown_keys=0.02, unknown_map_keys=0.02, non_restaurants=0.05,
                       malformed_businesses=0.01, duplicate_businesses=0.01,
                       malformed_reviews=0.002, unknown_business_reviews=0.005,
                       bad_star_reviews=0.002, empty_reviews=0.005),
            cutoff=0,
        ),
        Workload(
            name="listings",
            full=Shape(
                restaurants=2000, reviews_per_business=(1, 1),
                tokens_per_review=(5, 15), vocabulary=5000,
                # Half the businesses list only what they have, half also
                # mark what they lack, so both flag forms are parsed.
                full_attributes=0.5,
                # The public dump writes maps as Python reprs with quoted
                # keys; bare keys stay a minority so literal_eval carries
                # most map parsing and the hand-scan fallback still shows.
                bare_key_maps=0.1,
                # High enough that each counter reads in the hundreds.
                unparseable=0.1, unknown_keys=0.1, unknown_map_keys=0.1,
                # The public dump covers every kind of business, and
                # restaurants are taken to be about a third of it. Every
                # line is parsed and flattened before it is skipped, so
                # this share decides much of ingest time.
                non_restaurants=2.0,
                # Damaged lines: a few percent, enough for every kind.
                malformed_businesses=0.02, duplicate_businesses=0.02,
                malformed_reviews=0.01, unknown_business_reviews=0.02,
                bad_star_reviews=0.01, empty_reviews=0.01),
            cutoff=500,
        ),
    )
}
