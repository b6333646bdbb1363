"""The contract every record type of the package keeps, whatever form it
takes: construction by keyword and by position, field equality, hashing,
immutability, copies, and the counters' zero start and order."""

import copy
import pickle

import pytest

from ratingsift import (
    BusinessCounters,
    BusinessRecord,
    CohortScores,
    DisparityReport,
    FeatureTaxonomy,
    LexiconCounters,
    RankEntry,
    RankedList,
    ReviewCounters,
    ReviewRecord,
    SentimentLexicon,
    StarDocument,
    TopicProfile,
)

# Each record type with its fields in declaration order, and for each field a
# value and another value that makes the record differ.
RECORDS = {
    BusinessRecord: {
        "business_id": ("b1", "b2"),
        "overall_stars": (4.0, 4.5),
        "features": (frozenset({"wifi"}), frozenset({"wifi", "hastv"})),
    },
    ReviewRecord: {
        "business_id": ("b1", "b2"),
        "stars": (5, 4),
        "text": ("good food", "bad food"),
    },
    StarDocument: {
        "business_id": ("b1", "b2"),
        "stars": (5, 4),
        "term_counts": ({"food": 2}, {"food": 3}),
    },
    TopicProfile: {
        "business_id": ("b1", "b2"),
        "stars": (5, 4),
        "topics": ((("food", 1.5),), (("food", 2.5),)),
        "sentiment_score": (2, -1),
    },
    CohortScores: {
        "combined": ({5: 2}, {5: 3}),
        "average": ({5: 1.0}, {5: 1.5}),
        "populated_counts": ({5: 2}, {5: 1}),
    },
    RankEntry: {
        "business_id": ("b1", "b2"),
        "feature_count": (3, 4),
        "weighted_score": (2.1, 2.2),
    },
    RankedList: {
        "entries": ((RankEntry("b1", 3, 2.1),), ()),
    },
    DisparityReport: {
        "id_a": ("a", "c"),
        "id_b": ("b", "d"),
        "stars_a": (4.0, 3.0),
        "stars_b": (2.5, 3.5),
        "common": (frozenset({"lot"}), frozenset()),
        "missing_a": (frozenset(), frozenset({"wifi"})),
        "missing_b": (frozenset({"wifi"}), frozenset()),
        "deficiency_a": (0.0, 0.5),
        "deficiency_b": (0.7, 0.0),
        "sentiment_a": ({5: 3}, {5: 4}),
        "sentiment_b": ({1: -2}, {}),
        "delta": ({1: 2, 2: 0, 3: 0, 4: 0, 5: 3}, {1: 0, 2: 0, 3: 0, 4: 0, 5: 4}),
        "net": (5, 4),
        "verdict": ("favored_a", "inconclusive"),
    },
    BusinessCounters: {
        "parsed": (1, 2),
        "skipped_malformed": (1, 2),
        "skipped_non_restaurant": (1, 2),
        "skipped_duplicate_id": (1, 2),
        "attribute_fallbacks": (1, 2),
        "unknown_feature_names": (1, 2),
    },
    ReviewCounters: {
        "parsed": (1, 2),
        "skipped_malformed": (1, 2),
        "skipped_unknown_business": (1, 2),
        "skipped_bad_stars": (1, 2),
        "skipped_duplicate_id": (1, 2),
    },
    LexiconCounters: {
        "loaded": (1, 2),
        "skipped_multiword": (1, 2),
        "skipped_malformed": (1, 2),
    },
    FeatureTaxonomy: {
        "categories": ({"food": frozenset({"lunch"})}, {"food": frozenset({"dinner"})}),
        "weights": ({"food": 1.0}, {"food": 0.5}),
    },
    SentimentLexicon: {
        "entries": ({"good": 2}, {"good": 3}),
    },
}
COUNTERS = (BusinessCounters, ReviewCounters, LexiconCounters)
HASHABLE = (BusinessRecord, ReviewRecord, TopicProfile, RankEntry, RankedList)

records = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def _values(cls, changed=None):
    """Keyword arguments for ``cls``: every field's first value, but the
    other value for the field named ``changed``."""
    return {name: pair[name == changed] for name, pair in RECORDS[cls].items()}


@records
def test_construction_by_keyword_and_position(cls):
    values = _values(cls)
    record = cls(**values)
    assert {name: getattr(record, name) for name in values} == values
    assert cls(*values.values()) == record


@records
def test_equal_fields_equal_records(cls):
    assert cls(**_values(cls)) == cls(**_values(cls))
    if cls in HASHABLE:
        assert hash(cls(**_values(cls))) == hash(cls(**_values(cls)))
    else:
        with pytest.raises(TypeError):
            hash(cls(**_values(cls)))


@records
def test_any_one_field_differs(cls):
    record = cls(**_values(cls))
    for name in RECORDS[cls]:
        assert cls(**_values(cls, changed=name)) != record, name


@records
def test_unknown_or_missing_keyword_is_a_type_error(cls):
    with pytest.raises(TypeError):
        cls(**_values(cls), unknown=1)
    if cls not in COUNTERS:
        for name in RECORDS[cls]:
            values = _values(cls)
            del values[name]
            with pytest.raises(TypeError):
                cls(**values)


@records
def test_assignment(cls):
    record = cls(**_values(cls))
    for name, (_, other) in RECORDS[cls].items():
        if cls in COUNTERS:
            setattr(record, name, other)
            assert getattr(record, name) == other
        else:
            with pytest.raises(AttributeError):
                setattr(record, name, other)
            assert getattr(record, name) == _values(cls)[name]


@records
def test_copies_are_equal(cls):
    record = cls(**_values(cls))
    for duplicate in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is cls
        assert duplicate == record


@pytest.mark.parametrize("cls", COUNTERS, ids=lambda cls: cls.__name__)
def test_counters_start_at_zero_in_declaration_order(cls):
    counters = cls()
    assert list(counters.as_dict().items()) == [(name, 0) for name in RECORDS[cls]]
    for step, name in enumerate(RECORDS[cls], start=1):
        setattr(counters, name, getattr(counters, name) + step)
    assert list(counters.as_dict().values()) == list(range(1, len(RECORDS[cls]) + 1))
