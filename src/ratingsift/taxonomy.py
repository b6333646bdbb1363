"""Four-category feature taxonomy: classification, weighted scores, rankings.

Restaurant features are partitioned into four categories (food, parking,
amenities, qualities), each carrying a weight that expresses how much users
value that kind of feature. The taxonomy drives three things: classifying a
feature name, scoring a feature set as a weighted sum, and ranking
restaurants by raw feature count. The shipped taxonomies are stated in
``configs/*.cfg``; the default one also fixes the built-in feature names.
"""

import configparser
import io
import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple


_MICRO = 1_000_000  # weights have at most six decimals: integers in millionths


class UnknownFeatureError(ValueError):
    """Raised when a feature name is not part of the taxonomy universe."""


class FeatureTaxonomy:
    """Immutable category -> feature-name partition plus per-category weights.

    Categories must be pairwise disjoint and weights finite, non-negative
    and of at most six decimals. Category names are non-empty, lowercase
    and hold no surrounding whitespace or line break; feature names are
    non-empty, lowercase single words. So ``loads(dumps())`` gives back an
    equal taxonomy; all of this is validated at construction. Instances are
    read-only and safe to share between threads.
    """

    __slots__ = ("categories", "weights", "_category", "_micro_weight")

    def __init__(self, categories: Mapping[str, frozenset[str]], weights: Mapping[str, float]):
        if set(categories) != set(weights):
            raise ValueError("categories and weights must name the same category set")
        if not categories:
            raise ValueError("taxonomy needs at least one category")
        seen: dict[str, str] = {}
        for category, names in categories.items():
            if (not category or category != category.strip().lower()
                    or "\r" in category or "\n" in category):
                raise ValueError(
                    f"category name {category!r} must be non-empty and lowercase, "
                    "without surrounding whitespace or line breaks"
                )
            if not names:
                raise ValueError(f"category {category!r} has no features")
            for name in names:
                if not name or name != name.lower() or any(c.isspace() for c in name):
                    raise ValueError(
                        f"feature name {name!r} must be a non-empty lowercase single word"
                    )
                if name in seen:
                    raise ValueError(
                        f"feature {name!r} appears in both {seen[name]!r} and {category!r}"
                    )
                seen[name] = category
        for category, weight in weights.items():
            micro = weight * _MICRO
            if not (math.isfinite(micro) and weight >= 0 and round(micro) / _MICRO == weight):
                raise ValueError(
                    f"category {category!r} needs a finite, non-negative weight "
                    f"of at most six decimals, not {weight}"
                )
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "weights", weights)
        # The one feature -> category table; universe and lookups read it.
        object.__setattr__(self, "_category", seen)
        # Each feature's weight in millionths, for exact sums.
        object.__setattr__(self, "_micro_weight", {
            name: round(weights[category] * _MICRO) for name, category in seen.items()
        })

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FeatureTaxonomy is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.categories, self.weights) == (other.categories, other.weights)

    def __repr__(self) -> str:
        return f"FeatureTaxonomy(categories={self.categories!r}, weights={self.weights!r})"

    def __reduce__(self):
        # Rebuilt through __init__, so copy and pickle never set a slot.
        return type(self), (self.categories, self.weights)

    @property
    def universe(self) -> frozenset[str]:
        """All feature names across every category."""
        return frozenset(self._category)

    def category_of(self, name: str) -> str:
        """The unique category owning ``name``; UnknownFeatureError for
        names outside the universe."""
        try:
            return self._category[name]
        except KeyError:
            raise UnknownFeatureError(f"unknown feature name: {name!r}") from None

    @classmethod
    def loads(cls, text: str) -> "FeatureTaxonomy":
        """Parse the key-value config format (see ``dumps``)."""
        # No interpolation: a "%" in a value is read as itself.
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"bad taxonomy config: {exc}") from exc
        categories: dict[str, frozenset[str]] = {}
        weights: dict[str, float] = {}
        for section in parser.sections():
            category = section.strip().lower()
            if category in categories:
                # configparser kept [Food] and [food] apart; folded, they clash
                raise ValueError(f"category {category!r} appears more than once")
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
        fixed at six decimals. Equal taxonomies give equal text."""
        out = io.StringIO()
        for category in sorted(self.categories):
            out.write(f"[{category}]\n")
            out.write(f"weight = {self.weights[category]:.6f}\n")
            out.write(f"features = {' '.join(sorted(self.categories[category]))}\n\n")
        return out.getvalue()


def _shipped(cfg_name: str) -> FeatureTaxonomy:
    """Load a taxonomy config that ships in the package's ``configs``."""
    return FeatureTaxonomy.load(Path(__file__).with_name("configs") / cfg_name)


# The built-in feature set is the universe of this taxonomy; ingest flattens
# against it, and a custom taxonomy may only regroup and reweigh it.
DEFAULT_TAXONOMY = _shipped("taxonomy_default.cfg")


def alcohol_amenity_taxonomy() -> FeatureTaxonomy:
    """The shipped variant taxonomy with alcohol placed under amenities."""
    return _shipped("taxonomy_alcohol_amenity.cfg")


def weighted_feature_score(
    features: Iterable[str], taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY
) -> float:
    """Sum of the owning category's weight over ``features``, added in
    millionths and divided once: the float nearest the exact decimal sum."""
    try:
        return sum(taxonomy._micro_weight[name] for name in features) / _MICRO
    except KeyError as exc:
        raise UnknownFeatureError(f"unknown feature name: {exc.args[0]!r}") from None


class RankEntry(NamedTuple):
    business_id: str
    feature_count: int
    weighted_score: float


class RankedList(NamedTuple):
    """Businesses ordered by feature count, deterministic under ties."""

    entries: tuple[RankEntry, ...]

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
    return RankedList(entries=tuple(entries))


def feature_frequency(ranked: RankedList, businesses: Mapping) -> dict[str, int]:
    """Per-feature possession counts over the ranked businesses.

    ``businesses`` maps business_id -> record. Every built-in feature gets an
    entry, zero when no ranked business has it; a taxonomy accepted by rank
    covers exactly these.
    """
    counts = {name: 0 for name in sorted(DEFAULT_TAXONOMY.universe)}
    for entry in ranked.entries:
        record = businesses[entry.business_id]
        for name in record.features:
            counts[name] += 1
    return counts
