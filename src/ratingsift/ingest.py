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
on every use. Every well-formed business line has its attributes flattened
and counted, but only a restaurant gets a feature set and a record: its id,
overall stars and flattened features, not the raw strings. A review record
keeps its business, stars and text; its id is read only to drop duplicates.
"""

import functools
import json
import re
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Union

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

# The package's one JSON decoder; workspace reads record lines with it too.
_raw_decode = json.JSONDecoder().raw_decode


class IngestError(Exception):
    """Fatal ingest failure: the input stream itself cannot be read."""


class _Counters:
    """Mutable integer counters, each starting at zero. A subclass names its
    counters in ``__slots__``, in the order ``as_dict`` gives them."""

    __slots__ = ()

    def __init__(self, *counts: int, **named: int):
        names = self.__slots__
        given = dict(zip(names, counts))
        if len(counts) > len(names) or not named.keys() <= set(names) - given.keys():
            raise TypeError(
                f"{type(self).__name__} takes the counters {', '.join(names)}, each once"
            )
        given.update(named)
        for name in names:
            setattr(self, name, given.get(name, 0))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        counts = ", ".join(f"{name}={count}" for name, count in self.as_dict().items())
        return f"{type(self).__name__}({counts})"

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class BusinessCounters(_Counters):
    """Line accounting for a business parse pass.

    parsed + skipped_malformed + skipped_non_restaurant equals the number of
    non-blank input lines. ``skipped_duplicate_id`` is only touched by
    ``load_businesses`` (uniqueness is a dataset-level property; the streaming
    parser does not track ids).
    """

    __slots__ = (
        "parsed",
        "skipped_malformed",
        "skipped_non_restaurant",
        "skipped_duplicate_id",
        "attribute_fallbacks",
        "unknown_feature_names",
    )


class ReviewCounters(_Counters):
    """Line accounting for a review parse pass; same exactness contract.
    As for businesses, ``skipped_duplicate_id`` is only touched by
    ``load_reviews``, which reads the review ids the records do not keep."""

    __slots__ = (
        "parsed",
        "skipped_malformed",
        "skipped_unknown_business",
        "skipped_bad_stars",
        "skipped_duplicate_id",
    )


class BusinessRecord(NamedTuple):
    """One restaurant, immutable once constructed: what rank and compare read.

    ``features`` is the flattened canonical feature set, always a subset of
    the built-in features; the raw attribute strings are not kept.
    """

    business_id: str
    overall_stars: float
    features: frozenset[str]


class ReviewRecord(NamedTuple):
    """One review, as score and compare read it; no id, user or date is kept."""

    business_id: str
    stars: int
    text: str


def parse_attribute_value(raw: str) -> AttributeValue:
    """Parse one raw attribute value string.

    The one grammar: a leaf is True, False, None, a decimal integer, or a
    quoted string without backslashes (optional u prefix). A map is braces
    around ``key: leaf`` entries separated by commas, empty ones tolerated;
    a key is quoted, or a bare word of letters, digits, ``_`` and ``-`` not
    starting like a number, and a later duplicate wins. Anything else, other
    Python literal syntax included, is a fallback: it is returned unchanged
    (``raw`` itself) as an opaque token, and no other result is ``raw``.
    Never raises.
    """
    s = raw.strip()
    try:
        if _LEAF_RE.fullmatch(s):
            return _leaf_value(s)
        if s.startswith("{"):
            return _parse_map(s)
    except ValueError:  # outside the grammar, or past int()'s digit limit
        pass
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
    attributes: dict[str, object], counters: BusinessCounters | None = None
) -> frozenset[str]:
    """Flatten an attribute map, as decoded from the dump, into canonical
    feature names. A value that is not a string is read in its
    Python-literal form (``repr``), as ``parse_businesses`` reads it. It is
    the pass ``parse_businesses`` makes over every well-formed line, so
    ``counters`` gains what that parse counts for a line with this map,
    restaurant or not."""
    return _feature_set(_flatten_raw(attributes, counters, _flatten_attribute))


def _feature_set(found: list[str]) -> frozenset[str]:
    """The names in ``found`` as a frozenset. Built from a set, its table is
    sized once for its members; built straight from a list, it grows as it
    fills, to up to twice that (2,264 bytes against 1,240 for 19 names)."""
    return frozenset(set(found))


def _flatten_attribute(attr_name: str, raw: str) -> _Flattened:
    """Flatten one raw attribute value.

    Returns the present feature names, the fallback count and the count of
    names outside the built-in features. Pure, and the result is immutable,
    so a cache may hand the same result to every caller.
    """
    value = parse_attribute_value(raw)
    # Only a fallback hands back the very string it was given.
    fallbacks = int(value is raw)
    leaves = value.items() if isinstance(value, dict) else ((attr_name, value),)
    present = []
    unknown = 0
    for name, leaf in leaves:
        key = name.lower()
        if key not in _UNIVERSE:
            unknown += 1
        elif normalize_flag(leaf, key):
            present.append(key)
    return tuple(present), fallbacks, unknown


def _flatten_raw(
    attributes: dict[str, object],
    counters: BusinessCounters | None,
    flatten_attribute: Callable[[str, str], _Flattened],
) -> list[str]:
    """Core of flatten_features: the one pass over a business's attributes.
    Returns the present feature names in the order found, repeats included;
    the caller makes the set, so a business it does not keep gets none.

    A value that is not a string is rendered Python-literal style first, so
    parse_attribute_value sees the same shape either way. Top-level leaf
    attributes map to their lowercased name; map-valued attributes
    (BusinessParking, GoodForMeal, Ambience) contribute the inner keys whose
    value normalizes to present. Names outside the built-in features are
    ignored and counted; the map containers themselves are structural and
    never counted. ``flatten_attribute`` is ``_flatten_attribute`` or a
    cache of it; the counts are summed over every call and added to
    ``counters`` once, so they stay exact either way.
    """
    found: list[str] = []
    fallbacks = unknown = 0
    for attr_name, raw in attributes.items():
        if not isinstance(raw, str):
            raw = repr(raw)  # the same text str() gives for JSON's other types
        present, attr_fallbacks, attr_unknown = flatten_attribute(attr_name, raw)
        found += present
        fallbacks += attr_fallbacks
        unknown += attr_unknown
    if counters is not None:
        counters.attribute_fallbacks += fallbacks
        counters.unknown_feature_names += unknown
    return found


def _iter_objects(stream, counters: BusinessCounters | ReviewCounters) -> Iterator[dict]:
    """Yield the JSON object on each non-blank line.

    Lines that are not UTF-8, not JSON, or JSON but not an object are
    skipped and counted in ``counters.skipped_malformed``. Each stripped
    line is decoded by one ``raw_decode`` call; it must end where the value
    does. A stripped line neither starts nor ends with JSON whitespace, so
    this accepts exactly the lines ``json.loads`` accepts, and a leading
    byte order mark is malformed for both.
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
            obj, end = _raw_decode(line)
        except (ValueError, RecursionError):  # also too many digits or too deep
            counters.skipped_malformed += 1
            continue
        if end == len(line) and isinstance(obj, dict):
            yield obj
        else:
            counters.skipped_malformed += 1


def _is_restaurant(categories) -> bool:
    if isinstance(categories, str):
        categories = categories.split(",")
    elif not isinstance(categories, list):
        return False
    return "restaurants" in map(str.lower, map(str.strip, map(str, categories)))


def _build_business(
    obj: dict, counters: BusinessCounters, flatten_attribute: Callable[[str, str], _Flattened]
) -> list[str] | None:
    """Validate one decoded JSON object and count its attributes; None when
    malformed, else the feature names ``_flatten_raw`` found. ``review_count``
    is checked but not kept, and ``name`` is not read. The categories are not
    read either, so a non-restaurant's attributes count too; the caller
    checks them before it builds a record. The decoded ``attributes`` go to
    ``_flatten_raw`` as they are, uncopied."""
    business_id = obj.get("business_id")
    # ranked.csv could not hold "\r" (csv leaves it bare before Python 3.13)
    # or NUL (csv refuses it on 3.10), so such an id is malformed.
    if not isinstance(business_id, str) or not business_id or (
        "\r" in business_id or "\0" in business_id
    ):
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
    return _flatten_raw(attributes, counters, flatten_attribute)


def parse_businesses(
    stream: Union[IO, Iterable],
    counters: BusinessCounters | None = None,
) -> Iterator[BusinessRecord]:
    """Stream-parse a JSON-lines business file.

    Args:
        stream: open file (text or binary) or any iterable of lines.
        counters: optional BusinessCounters, filled in place.

    Yields:
        BusinessRecord per well-formed restaurant line. Blank lines are
        ignored; malformed lines, then businesses whose category list does
        not include "Restaurants", are skipped and counted, never fatal.
    """
    if counters is None:
        counters = BusinessCounters()
    # One cache per parse: bounded, and gone when the parse ends.
    flatten_attribute = functools.lru_cache(maxsize=_FLATTEN_CACHE_SIZE)(_flatten_attribute)
    for obj in _iter_objects(stream, counters):
        found = _build_business(obj, counters, flatten_attribute)
        if found is None:
            counters.skipped_malformed += 1
        elif not _is_restaurant(obj.get("categories")):
            counters.skipped_non_restaurant += 1
        else:
            counters.parsed += 1
            yield BusinessRecord(obj["business_id"], float(obj["stars"]), _feature_set(found))


def _build_review(obj: dict, counters: ReviewCounters, known: set[str]) -> ReviewRecord | None:
    """Build a record from one decoded JSON object; None once its skip is
    counted. The review id must be a non-empty string but is not kept."""
    review_id = obj.get("review_id")
    business_id = obj.get("business_id")
    raw_stars = obj.get("stars")
    if not (
        isinstance(review_id, str) and review_id and isinstance(business_id, str) and business_id
    ) or not isinstance(raw_stars, (int, float)) or isinstance(raw_stars, bool):
        counters.skipped_malformed += 1
        return None
    # Range first: NaN, infinity and ints too big for float() fail it.
    if not 1 <= raw_stars <= 5 or raw_stars != int(raw_stars):
        counters.skipped_bad_stars += 1
        return None
    if business_id not in known:
        counters.skipped_unknown_business += 1
        return None
    text = obj.get("text")
    counters.parsed += 1
    return ReviewRecord(business_id, int(raw_stars), text if isinstance(text, str) else "")


def _keyed_reviews(stream, known_business_ids, counters) -> Iterator[tuple[str, ReviewRecord]]:
    """The one review loop: each record with the review id of its line."""
    known = set(known_business_ids)
    for obj in _iter_objects(stream, counters):
        record = _build_review(obj, counters, known)
        if record is not None:
            yield obj["review_id"], record


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
    yield from map(itemgetter(1), _keyed_reviews(stream, known_business_ids, counters))


def _first_wins(path, kind: str, counters, keyed) -> dict:
    """The ``(id, record)`` pairs ``keyed(handle)`` reads from the file at
    ``path``, as an id-keyed dict in which the first record of an id wins.
    A later duplicate is counted in ``skipped_duplicate_id`` and stays
    counted as parsed, since its line was well-formed; a skipped line claims
    no id. Any read error is an IngestError naming the ``kind`` of file."""
    records = {}
    try:
        with open(path, "rb") as handle:
            for record_id, record in keyed(handle):
                if record_id in records:
                    counters.skipped_duplicate_id += 1
                else:
                    records[record_id] = record
    except OSError as exc:
        raise IngestError(f"cannot read {kind} file {path}: {exc}") from exc
    return records


def load_businesses(path) -> tuple[dict[str, BusinessRecord], BusinessCounters]:
    """Parse a business file into an id-keyed dict; the first occurrence of
    a business_id wins (see ``_first_wins``)."""
    counters = BusinessCounters()
    records = _first_wins(path, "business", counters, lambda handle: (
        (record.business_id, record) for record in parse_businesses(handle, counters)
    ))
    return records, counters


def load_reviews(
    path,
    known_business_ids: Iterable[str],
) -> tuple[list[ReviewRecord], ReviewCounters]:
    """Parse a review file into a list, dropping reviews for unknown ids.
    The first valid occurrence of a review_id wins, as for business ids."""
    counters = ReviewCounters()
    records = _first_wins(
        path, "review", counters,
        lambda handle: _keyed_reviews(handle, known_business_ids, counters),
    )
    return list(records.values()), counters
