"""Streaming ingest of Yelp-format JSON-lines business and review files.

Both parsers are generators with a strict streaming contract: one input line
in memory at a time, records yielded as they are built. Malformed data never
aborts a run; every skip path increments a counter so that, over the
non-blank lines of a file, parsed + skipped counts always add up exactly.

Attribute values arrive as strings in Python-literal style, e.g. "True",
"u'free'", "{'classy': True, 'romantic': False}". One grammar reads them: a
leaf is True/False/None, a decimal integer or a quoted string without
backslashes (optional u prefix); a map is braces around ``key: leaf``
entries with quoted or bare keys. Any other Python literal syntax is an
opaque string token, counted as a fallback. Raw values repeat heavily, so
each business parse keeps a cache of at most 4096 flattened values, which
bounds its memory; the counters stay exact because cached counts are added
on every use.
"""

import functools
import json
import re
from dataclasses import asdict, dataclass
from typing import IO, Callable, Iterable, Iterator, Union

from .taxonomy import DEFAULT_TAXONOMY

AttributeValue = Union[bool, int, str, None, dict]

# Attributes whose values are enumerations rather than booleans; any value
# other than a negative token means the feature is offered in some form.
ENUMERATED_ATTRIBUTES = frozenset({"wifi", "alcohol", "noiselevel", "restaurantsattire"})
_NEGATIVE_TOKENS = frozenset({"no", "none", ""})
_PRICE_ATTRIBUTE = "restaurantspricerange2"
_POSITIVE_TOKENS = frozenset({"yes", "true", "1"})

VALID_BUSINESS_STARS = frozenset({1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0})

# The built-in feature names; flattening keeps only these.
_UNIVERSE = DEFAULT_TAXONOMY.universe

# Distinct (attribute name, raw value) pairs each business parse keeps
# flattened. Listings repeat a few hundred values many times over.
_FLATTEN_CACHE_SIZE = 4096

# One flattened attribute: present feature names, fallbacks, unknown names.
_Flattened = tuple[tuple[str, ...], int, int]

# _ENTRY_RE reads one map entry and the comma or closing brace after it; a
# bare key starting like a number (0x10, 1e5) is a number to Python.
_LEAF = r"""True|False|None|[+-]?\d+|u?(?:'[^'\\]*'|"[^"\\]*")"""
_LEAF_RE = re.compile(_LEAF)
_ENTRY_RE = re.compile(
    rf"\s*(?:(?:(?P<key>{_LEAF})|(?P<bare>(?!-?\d)[A-Za-z0-9_-]+))"
    rf"\s*:\s*(?P<value>{_LEAF})\s*)?(?P<end>,|\}}\Z)"
)
_CONSTANTS = {"True": True, "False": False, "None": None}


class IngestError(Exception):
    """Fatal ingest failure: the input stream itself cannot be read."""


@dataclass
class BusinessCounters:
    """Line accounting for a business parse pass.

    parsed + skipped_malformed + skipped_non_restaurant equals the number of
    non-blank input lines. ``skipped_duplicate_id`` is only touched by
    ``load_businesses`` (uniqueness is a dataset-level property; the streaming
    parser does not track ids).
    """

    parsed: int = 0
    skipped_malformed: int = 0
    skipped_non_restaurant: int = 0
    skipped_duplicate_id: int = 0
    attribute_fallbacks: int = 0
    unknown_feature_names: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReviewCounters:
    """Line accounting for a review parse pass; same exactness contract.
    As for businesses, ``skipped_duplicate_id`` is only touched by
    ``load_reviews``."""

    parsed: int = 0
    skipped_malformed: int = 0
    skipped_unknown_business: int = 0
    skipped_bad_stars: int = 0
    skipped_duplicate_id: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BusinessRecord:
    """One business, immutable once constructed.

    ``raw_attributes`` holds the attribute map exactly as read (values as
    strings); ``features`` is the flattened canonical feature set, always a
    subset of the built-in features.
    """

    business_id: str
    name: str
    overall_stars: float
    review_count: int
    raw_attributes: dict[str, str]
    features: frozenset[str]
    is_restaurant: bool

    # Both record types serialize from vars(): dataclasses.asdict would
    # deep-copy every value, and these run once per record written.
    def to_json_dict(self) -> dict:
        return {**vars(self), "features": sorted(self.features)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BusinessRecord":
        return cls(**{**obj, "features": frozenset(obj["features"])})


@dataclass(frozen=True)
class ReviewRecord:
    """One review; ``date`` is retained for provenance but unused by scoring."""

    review_id: str
    business_id: str
    user_id: str
    stars: int
    text: str
    date: str

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ReviewRecord":
        return cls(**obj)


def parse_attribute_value(raw: str, counters: BusinessCounters | None = None) -> AttributeValue:
    """Parse one raw attribute value string.

    The one grammar: a leaf is True, False, None, a decimal integer, or a
    quoted string without backslashes (optional u prefix). A map is braces
    around ``key: leaf`` entries separated by commas, empty ones tolerated;
    a key is quoted, or a bare word of letters, digits, ``_`` and ``-`` not
    starting like a number, and a later duplicate wins. Anything else, other
    Python literal syntax included, is returned unchanged as an opaque token
    counted in ``counters.attribute_fallbacks``. Never raises.
    """
    s = raw.strip()
    try:
        if _LEAF_RE.fullmatch(s):
            return _leaf_value(s)
        if s.startswith("{"):
            return _parse_map(s)
    except ValueError:  # outside the grammar, or past int()'s digit limit
        pass
    if counters is not None:
        counters.attribute_fallbacks += 1
    return raw


def _leaf_value(token: str) -> AttributeValue:
    """The value of a token that matched the leaf grammar."""
    if token in _CONSTANTS:
        return _CONSTANTS[token]
    if token[-1] in "'\"":
        return token.removeprefix("u")[1:-1]
    return int(token)


def _parse_map(s: str) -> dict:
    """Parse a map that starts at s[0]; raises ValueError when malformed."""
    out = {}
    pos, end = 1, ","
    while end == ",":
        entry = _ENTRY_RE.match(s, pos)
        if entry is None:
            raise ValueError(f"malformed map entry at {pos}")
        if entry["value"] is not None:
            key = entry["bare"] or _leaf_value(entry["key"])
            if not isinstance(key, str):
                raise ValueError(f"non-string map key {key!r}")
            out[key] = _leaf_value(entry["value"])
        pos, end = entry.end(), entry["end"]
    return out


def normalize_flag(value: AttributeValue, attribute_name: str) -> bool:
    """Decide presence for one leaf attribute value.

    Present when: boolean true; integer 1; a yes/true/1 string; any
    non-negative token for the enumerated attributes (WiFi, Alcohol,
    NoiseLevel, RestaurantsAttire); or an integer >= 1 for
    RestaurantsPriceRange2. Everything else, None included, is absent.
    Unknown attribute names follow the plain boolean rule.
    """
    if isinstance(value, dict):
        raise ValueError(f"normalize_flag needs a leaf value, got a map for {attribute_name!r}")
    name = attribute_name.lower()
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if name == _PRICE_ATTRIBUTE:
            return value >= 1
        return value == 1
    if not isinstance(value, str):
        return False
    low = value.lower()
    if name in ENUMERATED_ATTRIBUTES:
        return low not in _NEGATIVE_TOKENS
    return low in _POSITIVE_TOKENS


def flatten_features(
    record: BusinessRecord, counters: BusinessCounters | None = None
) -> frozenset[str]:
    """Flatten a record's raw attributes into canonical feature names."""
    return _flatten_raw(record.raw_attributes, counters, _flatten_attribute)


def _flatten_attribute(attr_name: str, raw: str) -> _Flattened:
    """Flatten one raw attribute value.

    Returns the present feature names, the fallback count and the count of
    names outside the built-in features. Pure, and the result is immutable,
    so a cache may hand the same result to every caller.
    """
    counts = BusinessCounters()
    value = parse_attribute_value(raw, counts)
    leaves = value.items() if isinstance(value, dict) else ((attr_name, value),)
    present = []
    for name, leaf in leaves:
        key = name.lower()
        if key not in _UNIVERSE:
            counts.unknown_feature_names += 1
        elif normalize_flag(leaf, key):
            present.append(key)
    return tuple(present), counts.attribute_fallbacks, counts.unknown_feature_names


def _flatten_raw(
    raw_attributes: dict[str, str],
    counters: BusinessCounters | None,
    flatten_attribute: Callable[[str, str], _Flattened],
) -> frozenset[str]:
    """Core of flatten_features, working on the raw attribute map.

    Top-level leaf attributes map to their lowercased name; map-valued
    attributes (BusinessParking, GoodForMeal, Ambience) contribute the inner
    keys whose value normalizes to present. Names outside the built-in
    features are ignored and counted; the map containers themselves are
    structural and never counted. ``flatten_attribute`` is
    ``_flatten_attribute`` or a cache of it; the counts are added on every
    call, so they stay exact either way.
    """
    features: set[str] = set()
    for attr_name, raw in raw_attributes.items():
        present, fallbacks, unknown = flatten_attribute(attr_name, raw)
        features.update(present)
        if counters is not None:
            counters.attribute_fallbacks += fallbacks
            counters.unknown_feature_names += unknown
    return frozenset(features)


def _iter_objects(stream, counters: BusinessCounters | ReviewCounters) -> Iterator[dict]:
    """Yield the JSON object on each non-blank line.

    Lines that are not UTF-8, not JSON, or JSON but not an object are
    skipped and counted in ``counters.skipped_malformed``.
    """
    for line in stream:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                counters.skipped_malformed += 1
                continue
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # also too many digits or too deep
            counters.skipped_malformed += 1
            continue
        if isinstance(obj, dict):
            yield obj
        else:
            counters.skipped_malformed += 1


def _stringify_attribute(value) -> str:
    """Keep string values verbatim; render anything else Python-literal style
    so parse_attribute_value sees the same shape either way."""
    if isinstance(value, str):
        return value
    if isinstance(value, (dict, list)):
        return repr(value)
    return str(value)


def _is_restaurant(categories) -> bool:
    if isinstance(categories, str):
        names = categories.split(",")
    elif isinstance(categories, list):
        names = [str(c) for c in categories]
    else:
        return False
    return any(name.strip().lower() == "restaurants" for name in names)


def _build_business(
    obj: dict, counters: BusinessCounters, flatten_attribute: Callable[[str, str], _Flattened]
) -> BusinessRecord | None:
    """Build a record from one decoded JSON object; None when malformed."""
    business_id = obj.get("business_id")
    if not isinstance(business_id, str) or not business_id:
        return None
    stars = obj.get("stars")
    if not isinstance(stars, (int, float)) or isinstance(stars, bool):
        return None
    # Membership compares exactly, so an int too big for float() is just absent.
    if stars not in VALID_BUSINESS_STARS:
        return None
    review_count = obj.get("review_count", 0)
    if not isinstance(review_count, int) or isinstance(review_count, bool) or review_count < 0:
        return None
    attributes = obj.get("attributes")
    if attributes is None:
        attributes = {}
    if not isinstance(attributes, dict):
        return None
    raw_attributes = {str(k): _stringify_attribute(v) for k, v in attributes.items()}
    name = obj.get("name")
    return BusinessRecord(
        business_id=business_id,
        name=name if isinstance(name, str) else "",
        overall_stars=float(stars),
        review_count=review_count,
        raw_attributes=raw_attributes,
        features=_flatten_raw(raw_attributes, counters, flatten_attribute),
        is_restaurant=_is_restaurant(obj.get("categories")),
    )


def parse_businesses(
    stream: Union[IO, Iterable],
    counters: BusinessCounters | None = None,
    restaurants_only: bool = True,
) -> Iterator[BusinessRecord]:
    """Stream-parse a JSON-lines business file.

    Args:
        stream: open file (text or binary) or any iterable of lines.
        counters: optional BusinessCounters, filled in place.
        restaurants_only: skip (and count) businesses whose category list
            does not include "Restaurants"; pass False to keep everything
            and rely on ``is_restaurant``.

    Yields:
        BusinessRecord per well-formed line. Blank lines are ignored;
        malformed lines are skipped and counted, never fatal.
    """
    if counters is None:
        counters = BusinessCounters()
    # One cache per parse: bounded, and gone when the parse ends.
    flatten_attribute = functools.lru_cache(maxsize=_FLATTEN_CACHE_SIZE)(_flatten_attribute)
    for obj in _iter_objects(stream, counters):
        record = _build_business(obj, counters, flatten_attribute)
        if record is None:
            counters.skipped_malformed += 1
            continue
        if restaurants_only and not record.is_restaurant:
            counters.skipped_non_restaurant += 1
            continue
        counters.parsed += 1
        yield record


def parse_reviews(
    stream: Union[IO, Iterable],
    known_business_ids: Iterable[str],
    counters: ReviewCounters | None = None,
) -> Iterator[ReviewRecord]:
    """Stream-parse a JSON-lines review file against loaded business ids.

    Reviews referencing unknown businesses are dropped and counted, as are
    reviews whose stars are not an integer in 1..5. A missing text field is
    kept as empty text.
    """
    if counters is None:
        counters = ReviewCounters()
    known = set(known_business_ids)
    for obj in _iter_objects(stream, counters):
        review_id = obj.get("review_id")
        business_id = obj.get("business_id")
        if not isinstance(review_id, str) or not review_id:
            counters.skipped_malformed += 1
            continue
        if not isinstance(business_id, str) or not business_id:
            counters.skipped_malformed += 1
            continue
        raw_stars = obj.get("stars")
        if not isinstance(raw_stars, (int, float)) or isinstance(raw_stars, bool):
            counters.skipped_malformed += 1
            continue
        # Range first: NaN, infinity and ints too big for float() fail it.
        if not 1 <= raw_stars <= 5 or raw_stars != int(raw_stars):
            counters.skipped_bad_stars += 1
            continue
        if business_id not in known:
            counters.skipped_unknown_business += 1
            continue
        text = obj.get("text")
        user_id = obj.get("user_id")
        date = obj.get("date")
        counters.parsed += 1
        yield ReviewRecord(
            review_id=review_id,
            business_id=business_id,
            user_id=user_id if isinstance(user_id, str) else "",
            stars=int(raw_stars),
            text=text if isinstance(text, str) else "",
            date=date if isinstance(date, str) else "",
        )


def load_businesses(
    path, restaurants_only: bool = True
) -> tuple[dict[str, BusinessRecord], BusinessCounters]:
    """Parse a business file into an id-keyed dict.

    Enforces business_id uniqueness: the first occurrence wins and later
    duplicates are counted in ``skipped_duplicate_id`` (they remain counted
    as parsed, since the line itself was well-formed).
    """
    counters = BusinessCounters()
    records: dict[str, BusinessRecord] = {}
    try:
        with open(path, "rb") as handle:
            for record in parse_businesses(handle, counters, restaurants_only):
                if record.business_id in records:
                    counters.skipped_duplicate_id += 1
                    continue
                records[record.business_id] = record
    except OSError as exc:
        raise IngestError(f"cannot read business file {path}: {exc}") from exc
    return records, counters


def load_reviews(
    path,
    known_business_ids: Iterable[str],
) -> tuple[list[ReviewRecord], ReviewCounters]:
    """Parse a review file into a list, dropping reviews for unknown ids.

    Enforces review_id uniqueness as ``load_businesses`` does for business
    ids: the first occurrence wins and later duplicates are counted in
    ``skipped_duplicate_id`` (and remain counted as parsed).
    """
    counters = ReviewCounters()
    reviews: list[ReviewRecord] = []
    seen: set[str] = set()
    try:
        with open(path, "rb") as handle:
            for review in parse_reviews(handle, known_business_ids, counters):
                if review.review_id in seen:
                    counters.skipped_duplicate_id += 1
                    continue
                seen.add(review.review_id)
                reviews.append(review)
    except OSError as exc:
        raise IngestError(f"cannot read review file {path}: {exc}") from exc
    return reviews, counters
