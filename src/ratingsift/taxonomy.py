"""Four-category feature taxonomy: classification, weighted scores, rankings.

Restaurant features are partitioned into four categories (food, parking,
amenities, qualities), each carrying a weight that expresses how much users
value that kind of feature. The taxonomy drives three things: classifying a
feature name, scoring a feature set as a weighted sum, and ranking
restaurants by raw feature count. The shipped taxonomies are stated in
``configs/*.cfg``; the default one also fixes the built-in feature names.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping


class UnknownFeatureError(ValueError):
    """Raised when a feature name is not part of the taxonomy universe."""


@dataclass(frozen=True)
class FeatureTaxonomy:
    """Immutable category -> feature-name partition plus per-category weights.

    Categories must be pairwise disjoint and weights finite and non-negative;
    both are validated at construction. Instances are safe to share between
    threads.
    """

    categories: Mapping[str, frozenset[str]]
    weights: Mapping[str, float]

    def __post_init__(self):
        if set(self.categories) != set(self.weights):
            raise ValueError("categories and weights must name the same category set")
        if not self.categories:
            raise ValueError("taxonomy needs at least one category")
        seen: dict[str, str] = {}
        for category, names in self.categories.items():
            if not names:
                raise ValueError(f"category {category!r} has no features")
            for name in names:
                if name != name.lower():
                    raise ValueError(f"feature name {name!r} must be lowercase")
                if name in seen:
                    raise ValueError(
                        f"feature {name!r} appears in both {seen[name]!r} and {category!r}"
                    )
                seen[name] = category
        for category, weight in self.weights.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"category {category!r} needs a finite, non-negative weight, not {weight}"
                )
        # The one feature -> category table; universe and lookups read it.
        object.__setattr__(self, "_category", seen)

    @property
    def universe(self) -> frozenset[str]:
        """All feature names across every category."""
        return frozenset(self._category)

    def category_of(self, name: str) -> str:
        try:
            return self._category[name]
        except KeyError:
            raise UnknownFeatureError(f"unknown feature name: {name!r}") from None

    def weight_of(self, name: str) -> float:
        return self.weights[self.category_of(name)]

    @classmethod
    def loads(cls, text: str) -> "FeatureTaxonomy":
        """Parse the key-value config format (see ``dumps``)."""
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"bad taxonomy config: {exc}") from exc
        categories: dict[str, frozenset[str]] = {}
        weights: dict[str, float] = {}
        for section in parser.sections():
            category = section.strip().lower()
            try:
                weight = parser.getfloat(section, "weight")
            except (configparser.NoOptionError, ValueError) as exc:
                raise ValueError(f"category {category!r}: bad or missing weight") from exc
            names = parser.get(section, "features", fallback="").split()
            categories[category] = frozenset(n.lower() for n in names)
            weights[category] = weight
        return cls(categories=categories, weights=weights)

    @classmethod
    def load(cls, path) -> "FeatureTaxonomy":
        # utf-8-sig: a byte-order mark would otherwise hide the first section
        with open(path, "r", encoding="utf-8-sig") as handle:
            return cls.loads(handle.read())

    def dumps(self) -> str:
        """Canonical config text: sections and feature lists sorted, weights
        fixed at six decimals. Hashing this text identifies the taxonomy."""
        out = io.StringIO()
        for category in sorted(self.categories):
            out.write(f"[{category}]\n")
            out.write(f"weight = {self.weights[category]:.6f}\n")
            out.write(f"features = {' '.join(sorted(self.categories[category]))}\n\n")
        return out.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()


def _shipped(cfg_name: str) -> FeatureTaxonomy:
    """Load a taxonomy config that ships in the package's ``configs``."""
    path = resources.files("ratingsift").joinpath(f"configs/{cfg_name}")
    return FeatureTaxonomy.loads(path.read_text(encoding="utf-8"))


# The built-in feature set is the universe of this taxonomy; ingest flattens
# against it, and a custom taxonomy may only regroup and reweigh it.
DEFAULT_TAXONOMY = _shipped("taxonomy_default.cfg")


def alcohol_amenity_taxonomy() -> FeatureTaxonomy:
    """The shipped variant taxonomy with alcohol placed under amenities."""
    return _shipped("taxonomy_alcohol_amenity.cfg")


def classify_feature(name: str, taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY) -> str:
    """Return the unique category owning ``name``.

    Raises UnknownFeatureError for names outside the taxonomy universe.
    """
    return taxonomy.category_of(name)


def weighted_feature_score(
    features: Iterable[str], taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY
) -> float:
    """Sum of the owning category's weight over ``features``.

    Summation runs in sorted name order so the result is bit-identical no
    matter how the input set iterates.
    """
    return sum(taxonomy.weight_of(name) for name in sorted(features))


@dataclass(frozen=True)
class RankEntry:
    business_id: str
    feature_count: int
    weighted_score: float


@dataclass(frozen=True)
class RankedList:
    """Businesses ordered by feature count, deterministic under ties."""

    entries: tuple[RankEntry, ...]
    cutoff: int

    def business_ids(self) -> list[str]:
        return [entry.business_id for entry in self.entries]


def rank_restaurants(
    businesses: Iterable,
    taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY,
    cutoff: int = 0,
) -> RankedList:
    """Rank businesses by feature count, descending.

    The order key is the raw number of features; the weighted score is
    carried along for reporting but does not affect the order. Ties break
    by business_id ascending so the output is a total order: shuffling the
    input can never change the result. ``cutoff`` > 0 truncates the list;
    0 keeps every business.
    """
    entries = [
        RankEntry(
            business_id=b.business_id,
            feature_count=len(b.features),
            weighted_score=weighted_feature_score(b.features, taxonomy),
        )
        for b in businesses
    ]
    entries.sort(key=lambda e: (-e.feature_count, e.business_id))
    if cutoff > 0:
        entries = entries[:cutoff]
    return RankedList(entries=tuple(entries), cutoff=cutoff)


def feature_frequency(
    ranked: RankedList,
    businesses: Mapping,
    taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY,
) -> dict[str, int]:
    """Per-feature possession counts over the ranked businesses.

    ``businesses`` maps business_id -> record. Every feature in the taxonomy
    universe gets an entry, zero when no ranked business has it.
    """
    counts = {name: 0 for name in sorted(taxonomy.universe)}
    for entry in ranked.entries:
        record = businesses[entry.business_id]
        for name in record.features:
            counts[name] += 1
    return counts
