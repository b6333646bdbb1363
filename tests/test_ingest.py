"""Attribute parsing, flattening, and streaming file ingest."""

import ast
import errno
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratingsift import (
    BusinessCounters,
    IngestError,
    ReviewCounters,
    flatten_features,
    load_businesses,
    load_reviews,
    normalize_flag,
    parse_attribute_value,
    parse_businesses,
    parse_reviews,
)
from ratingsift import ingest

from conftest import (
    REFERENCE_A_FEATURES,
    REFERENCE_B_FEATURES,
    attributes_for,
    business_line,
    review_line,
)


def _fallbacks_counted(raw):
    """The attribute fallbacks parse_businesses counts for one business
    whose only attribute holds ``raw``."""
    counters = BusinessCounters()
    list(parse_businesses([business_line("b1", attributes={"HasTV": raw})], counters=counters))
    return counters.attribute_fallbacks


class TestParseAttributeValue:
    @pytest.mark.parametrize("raw,expected", [
        ("True", True),
        ("False", False),
        ("None", None),
        ("2", 2),
        ("-1", -1),
        ("u'free'", "free"),
        ("'full_bar'", "full_bar"),
        ('"average"', "average"),
        ("u''", ""),
    ])
    def test_leaf_values(self, raw, expected):
        assert parse_attribute_value(raw) == expected

    def test_quoted_map(self):
        raw = "{'classy': True, 'romantic': False, 'casual': None}"
        assert parse_attribute_value(raw) == {
            "classy": True, "romantic": False, "casual": None,
        }

    def test_bare_key_map(self):
        raw = "{garage: False, street: True, lot: None}"
        assert parse_attribute_value(raw) == {
            "garage": False, "street": True, "lot": None,
        }

    def test_quoted_key_may_hold_colon(self):
        raw = "{'a:b': True, c: False}"
        assert parse_attribute_value(raw) == {"a:b": True, "c": False}

    def test_map_with_string_values(self):
        raw = "{'wifi': u'free', 'level': 'quiet'}"
        assert parse_attribute_value(raw) == {"wifi": "free", "level": "quiet"}

    def test_empty_map(self):
        assert parse_attribute_value("{}") == {}

    def test_whitespace_tolerated(self):
        assert parse_attribute_value("  True ") is True

    @pytest.mark.parametrize("raw", [
        "maybe",                      # bare word
        "{'a': 2.5}",                 # float leaf
        "{'a': {'b': True}}",         # nested map
        "{'a' True}",                 # missing colon
        "{broken",                    # unbalanced
        "[1, 2]",                     # list
        "{1: True}",                  # non-string key
        pytest.param("{'garage': " + "-" * 5000 + "1}", id="deep-operator-chain"),
        pytest.param("1" * 5000, id="past-int-digit-limit"),
        "{{'a': 1}}",                 # set holding a map
        "{'a': 'x\\'y'}",             # backslash escape
        "{'a': 0x10}",                # hex int
        "{'a': 'x' 'y'}",             # implicit concatenation
        "{'a': (1)}",                 # parenthesised leaf
        "{1: True, a: False}",        # number-like bare key
        "{'a': 2.5, 'a': True}",      # non-leaf overwritten by a duplicate
    ])
    def test_unrecognized_falls_back_to_opaque_string(self, raw):
        assert parse_attribute_value(raw) is raw
        assert _fallbacks_counted(raw) == 1

    def test_fallback_never_raises(self):
        for raw in ("", "}{", "{'", "u'unterminated", "{,}", "{:}"):
            parse_attribute_value(raw)


class TestNormalizeFlag:
    @pytest.mark.parametrize("value,name,expected", [
        (True, "hastv", True),
        (False, "hastv", False),
        (None, "hastv", False),
        (1, "hastv", True),
        (0, "hastv", False),
        (2, "hastv", False),
        ("yes", "caters", True),
        ("true", "caters", True),
        ("1", "caters", True),
        ("no", "caters", False),
        ("whatever", "caters", False),
        # enumerated attributes: anything but a negative token is presence
        ("free", "wifi", True),
        ("paid", "wifi", True),
        ("no", "wifi", False),
        ("none", "alcohol", False),
        ("full_bar", "alcohol", True),
        ("average", "noiselevel", True),
        ("", "noiselevel", False),
        ("casual", "restaurantsattire", True),
        # price: any positive range counts as listed
        (1, "restaurantspricerange2", True),
        (3, "restaurantspricerange2", True),
        (0, "restaurantspricerange2", False),
    ])
    def test_table(self, value, name, expected):
        assert normalize_flag(value, name) is expected

    def test_case_insensitive(self):
        assert normalize_flag("Free", "WiFi") is True
        assert normalize_flag("No", "WiFi") is False

    def test_map_value_rejected(self):
        with pytest.raises(ValueError):
            normalize_flag({"garage": True}, "businessparking")


class TestFlattenFeatures:
    def test_scalar_and_map_attributes_combine(self):
        attrs = {
            "HasTV": "True",
            "WiFi": "u'free'",
            "BusinessParking": "{'garage': False, 'street': True}",
            "Ambience": "{'classy': True, 'hipster': False}",
        }
        features = flatten_features(attrs)
        assert features == {"hastv", "wifi", "street", "classy"}

    def test_absent_values_do_not_contribute(self):
        attrs = {"HasTV": "False", "WiFi": "u'no'", "Alcohol": "u'none'"}
        assert flatten_features(attrs) == frozenset()

    def test_unknown_names_counted_not_kept(self):
        counters = BusinessCounters()
        attrs = {"DogsAllowed": "True", "Ambience": "{'divey': True, 'classy': True}"}
        features = flatten_features(attrs, counters=counters)
        assert features == {"classy"}
        assert counters.unknown_feature_names == 2

    def test_map_containers_are_structural(self):
        counters = BusinessCounters()
        attrs = {"BusinessParking": "{'lot': True}"}
        features = flatten_features(attrs, counters=counters)
        assert features == {"lot"}
        # the container name itself is not an unknown feature
        assert counters.unknown_feature_names == 0

    def test_opaque_fallback_value_is_absent(self):
        counters = BusinessCounters()
        attrs = {"HasTV": "definitely"}
        assert flatten_features(attrs, counters=counters) == frozenset()
        assert counters.attribute_fallbacks == 1

    def test_attributes_for_builder_is_exact(self):
        for wanted in (REFERENCE_A_FEATURES, REFERENCE_B_FEATURES, frozenset()):
            assert flatten_features(attributes_for(wanted)) == wanted


# Decoded attribute values that are not strings.
_NON_STRING_ATTRIBUTES = {
    "WiFi": True,
    "RestaurantsPriceRange2": 2,
    "BusinessParking": {"garage": True, "lot": False},
    "Ambience": {"classy": {"x": 1}},  # nested map: fallback, unknown name
    "HasTV": None,
    "Caters": 2.5,                     # fallback, absent
    "Music": ["a"],                    # fallback, unknown name
}


class TestParseBusinesses:
    def test_parses_well_formed_lines(self):
        lines = [
            business_line("b1", attributes=attributes_for({"wifi", "hastv"})),
            business_line("b2", attributes=attributes_for({"lot"})),
        ]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters))
        assert [r.business_id for r in records] == ["b1", "b2"]
        assert records[0].features == {"wifi", "hastv"}
        assert counters.parsed == 2

    def test_blank_lines_invisible_to_counters(self):
        lines = [business_line("b1"), "", "   ", "\t", business_line("b2")]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters))
        assert len(records) == 2
        assert counters.parsed == 2
        assert counters.skipped_malformed == 0

    def test_non_restaurants_skipped_by_default(self):
        lines = [
            business_line("b1", categories="Restaurants, Thai"),
            business_line("b2", categories="Auto Repair, Tires"),
            business_line("b3", categories=None),
        ]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters))
        assert [r.business_id for r in records] == ["b1"]
        assert counters.skipped_non_restaurant == 2

    def test_categories_as_json_list(self):
        lines = [
            business_line("b1", categories=["Thai", " restaurants "]),
            business_line("b2", categories=["Shopping", 7]),
        ]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters))
        assert [r.business_id for r in records] == ["b1"]
        assert counters.skipped_non_restaurant == 1

    def test_category_match_is_exact_token(self):
        # a category merely containing the word is not a restaurant
        lines = [business_line("b1", categories="Restaurant Supplies")]
        counters = BusinessCounters()
        assert list(parse_businesses(lines, counters=counters)) == []
        assert counters.skipped_non_restaurant == 1

    @pytest.mark.parametrize("bad", [
        {"stars": 3.7},            # off the half-star grid
        {"stars": "3.5"},          # wrong type
        {"stars": None},
        {"review_count": -1},
        {"review_count": "many"},
        {"business_id": ""},
        {"business_id": None},
        {"attributes": [1, 2]},
    ])
    def test_invalid_fields_are_malformed(self, bad):
        obj = json.loads(business_line("b1"))
        obj.update(bad)
        counters = BusinessCounters()
        assert list(parse_businesses([json.dumps(obj)], counters=counters)) == []
        assert counters.skipped_malformed == 1

    def test_missing_attributes_treated_as_empty(self):
        obj = json.loads(business_line("b1"))
        del obj["attributes"]
        records = list(parse_businesses([json.dumps(obj)]))
        assert records[0].features == frozenset()

    def test_null_attributes_treated_as_empty(self):
        obj = json.loads(business_line("b1"))
        obj["attributes"] = None
        records = list(parse_businesses([json.dumps(obj)]))
        assert records[0].features == frozenset()

    def test_non_string_attribute_values(self):
        # read in their Python-literal form, as if the dump had quoted them
        counters = BusinessCounters()
        lines = [business_line("b1", attributes=_NON_STRING_ATTRIBUTES)]
        records = list(parse_businesses(lines, counters=counters))
        assert records[0].features == {"garage", "restaurantspricerange2", "wifi"}
        assert counters.attribute_fallbacks == 3
        assert counters.unknown_feature_names == 2

    def test_accepts_binary_stream(self):
        data = (business_line("b1") + "\n").encode("utf-8")
        records = list(parse_businesses(io.BytesIO(data)))
        assert records[0].business_id == "b1"

    def test_records_built_only_for_restaurants(self, monkeypatch):
        # A non-restaurant adds its attribute counts and nothing else: no
        # record is built for it, nor for a malformed line.
        built = []

        class CountedRecord(ingest.BusinessRecord):
            def __new__(cls, *args, **kwargs):
                built.append(cls)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(ingest, "BusinessRecord", CountedRecord)
        lines = [
            business_line("r1", attributes=attributes_for({"wifi", "lot"})),
            business_line("n1", categories="Auto Repair",
                          attributes={"HasTV": "definitely", "Music": "True"}),
            "junk",
            business_line("m1", stars=3.7),
            business_line("r2", categories=["Thai", "restaurants"]),
            business_line("n2", categories=None, attributes=attributes_for({"hastv"})),
        ]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters))
        assert [r.business_id for r in records] == ["r1", "r2"]
        assert len(built) == counters.parsed == 2
        assert (counters.skipped_malformed, counters.skipped_non_restaurant) == (2, 2)
        assert (counters.attribute_fallbacks, counters.unknown_feature_names) == (1, 1)

    def test_counter_exactness_invariant(self):
        lines = [
            business_line("b1"),
            "junk",
            business_line("b2", categories="Plumbing"),
            "",
            business_line("b3"),
        ]
        counters = BusinessCounters()
        list(parse_businesses(lines, counters=counters))
        non_blank = sum(1 for l in lines if l.strip())
        total = (
            counters.parsed
            + counters.skipped_malformed
            + counters.skipped_non_restaurant
        )
        assert total == non_blank


class TestFlattenCache:
    """Each business parse flattens a distinct attribute value once."""

    def _count_parses(self, monkeypatch):
        calls = []
        real = ingest.parse_attribute_value

        def counting(raw):
            calls.append(raw)
            return real(raw)

        monkeypatch.setattr(ingest, "parse_attribute_value", counting)
        return calls

    def test_repeated_values_parsed_once_per_parse(self, monkeypatch):
        calls = self._count_parses(monkeypatch)
        attrs = {"Caters": "definitely", "DogsAllowed": "True", "HasTV": "True"}
        lines = [business_line(f"b{i}", attributes=attrs) for i in range(5)]
        passes = []
        for _ in range(2):
            counters = BusinessCounters()
            records = list(parse_businesses(lines, counters=counters))
            passes.append((counters, len(calls)))
            calls.clear()
            assert [r.features for r in records] == [{"hastv"}] * 5
        # No cache outlives a parse: the second pass parses and counts again.
        assert passes[0] == passes[1]
        counters, parses = passes[0]
        assert parses == 3
        assert (counters.attribute_fallbacks, counters.unknown_feature_names) == (5, 5)

    def test_counters_exact_past_cache_size(self):
        n = ingest._FLATTEN_CACHE_SIZE + 200

        def line(i):
            return business_line(f"b{i}", attributes={
                "Ambience": f"{{'classy': True, 'extra{i}': True}}",
                "HasTV": f"maybe{i}",  # a fallback, so absent
            })
        # The first values come back after the cache has evicted them.
        lines = [line(i) for i in range(n)] + [line(i) for i in range(100)]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters))
        assert all(r.features == {"classy"} for r in records)
        assert counters.attribute_fallbacks == len(lines)
        assert counters.unknown_feature_names == len(lines)

    def test_parsed_map_is_fresh_each_call(self):
        raw = "{'lot': True, 'garage': False}"
        first = parse_attribute_value(raw)
        first["lot"] = False
        first["valet"] = True
        assert parse_attribute_value(raw) == {"lot": True, "garage": False}


class TestParseReviews:
    def test_parses_and_filters_unknown_business(self):
        lines = [
            review_line("r1", "b1", 5, "great food"),
            review_line("r2", "ghost", 3, "fine"),
        ]
        counters = ReviewCounters()
        reviews = list(parse_reviews(lines, {"b1"}, counters))
        assert [(r.business_id, r.stars, r.text) for r in reviews] == [("b1", 5, "great food")]
        assert counters.parsed == 1
        assert counters.skipped_unknown_business == 1

    @pytest.mark.parametrize("stars,counter", [
        (1, "parsed"), (5, "parsed"), (3.0, "parsed"),
        # numeric but out of range or fractional: bad stars
        (0, "skipped_bad_stars"), (6, "skipped_bad_stars"), (2.5, "skipped_bad_stars"),
        # wrong type entirely: the record itself is malformed
        ("3", "skipped_malformed"), (None, "skipped_malformed"),
        (True, "skipped_malformed"),
    ])
    def test_star_validation(self, stars, counter):
        obj = json.loads(review_line("r1", "b1", 3, "text"))
        obj["stars"] = stars
        counters = ReviewCounters()
        reviews = list(parse_reviews([json.dumps(obj)], {"b1"}, counters))
        assert getattr(counters, counter) == 1
        if counter == "parsed":
            assert reviews[0].stars == int(stars)
        else:
            assert reviews == []

    def test_non_finite_stars_skipped(self):
        line = '{"review_id": "r1", "business_id": "b1", "stars": NaN, "text": "x"}'
        counters = ReviewCounters()
        assert list(parse_reviews([line], {"b1"}, counters)) == []
        assert counters.skipped_bad_stars == 1

    @pytest.mark.parametrize("field", ["review_id", "business_id"])
    def test_missing_id_is_malformed(self, field):
        obj = json.loads(review_line("r1", "b1", 4, "fine"))
        lines = [json.dumps({**obj, field: value}) for value in ("", 7)]
        del obj[field]
        lines.append(json.dumps(obj))
        counters = ReviewCounters()
        assert list(parse_reviews(lines, {"b1"}, counters)) == []
        assert counters.skipped_malformed == 3

    def test_missing_text_becomes_empty(self):
        obj = json.loads(review_line("r1", "b1", 4, "x"))
        del obj["text"]
        reviews = list(parse_reviews([json.dumps(obj)], {"b1"}))
        assert reviews[0].text == ""


def _business_pass(lines):
    counters = BusinessCounters()
    return list(parse_businesses(lines, counters=counters)), counters


def _review_pass(lines):
    counters = ReviewCounters()
    return list(parse_reviews(lines, {"b1"}, counters)), counters


@pytest.mark.parametrize("parse,good", [
    (_business_pass, business_line("b1")),
    (_review_pass, review_line("r1", "b1", 4, "fine")),
], ids=["businesses", "reviews"])
@pytest.mark.parametrize("bad,review_skip", [
    (b"\xff\xfe{}", "skipped_malformed"),          # not UTF-8
    ('"a bare string"', "skipped_malformed"),
    ("[1, 2]", "skipped_malformed"),
    ("{broken", "skipped_malformed"),
    # stars too big for float(); out of range for a review
    ('{"business_id": "b1", "review_id": "r2", "stars": 1' + "0" * 400 + "}",
     "skipped_bad_stars"),
    # past the interpreter's digit limit for int()
    ('{"business_id": "b1", "review_id": "r2", "stars": 4, "n": 1' + "0" * 5000 + "}",
     "skipped_malformed"),
    ("[" * 100_000 + "]" * 100_000, "skipped_malformed"),  # past the recursion limit
], ids=["non_utf8", "json_string", "json_array", "broken_json",
        "huge_stars", "huge_number", "deep_nesting"])
def test_malformed_lines_skipped_and_counted(parse, good, bad, review_skip):
    records, counters = parse([good, bad])
    skip = review_skip if parse is _review_pass else "skipped_malformed"
    assert len(records) == 1
    assert counters.parsed == 1
    skips = {k: v for k, v in counters.as_dict().items() if k.startswith("skipped_") and v}
    assert skips == {skip: 1}


class TestLoaders:
    def test_load_businesses_dedupes_first_wins(self, tmp_path):
        path = tmp_path / "business.json"
        path.write_text(
            business_line("b1", stars=4.0) + "\n"
            + business_line("b1", stars=2.5) + "\n",
            encoding="utf-8",
        )
        records, counters = load_businesses(path)
        assert records["b1"].overall_stars == 4.0
        assert counters.skipped_duplicate_id == 1
        assert counters.parsed == 2

    def test_load_businesses_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_businesses(tmp_path / "nope.json")

    def test_load_reviews_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_reviews(tmp_path / "nope.json", {"b1"})

    @pytest.mark.parametrize("load,kind", [
        (load_businesses, "business"), (lambda path: load_reviews(path, {"b1"}), "review"),
    ], ids=["businesses", "reviews"])
    def test_read_error_while_reading_lines(self, tmp_path, monkeypatch, load, kind):
        def failing(stream, counters):
            yield json.loads(business_line("b1"))
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        path = tmp_path / "dump.json"
        path.write_text("{}\n", encoding="utf-8")
        monkeypatch.setattr(ingest, "_iter_objects", failing)
        message = f"cannot read {kind} file .*{os.strerror(errno.EIO)}"
        with pytest.raises(IngestError, match=message):
            load(path)

    def test_load_reviews_dedupes_first_wins(self, tmp_path):
        # The id is read before the record drops it, and only a line that
        # passes every other check claims it: a valid first line wins over a
        # later one, and a skipped first line does not shadow a later valid one.
        cases = [
            ([review_line("r1", "b1", 4, "first"), review_line("r2", "b1", 4, "other"),
              review_line("r1", "b2", 2, "second")],
             [("b1", 4, "first"), ("b1", 4, "other")],
             {"parsed": 3, "skipped_duplicate_id": 1}),
            ([review_line("r1", "b1", 9, "bad stars"), review_line("r1", "b1", 3, "kept")],
             [("b1", 3, "kept")],
             {"parsed": 1, "skipped_bad_stars": 1, "skipped_duplicate_id": 0}),
            ([review_line("r1", "ghost", 4, "lost"), review_line("r1", "b2", 3, "kept")],
             [("b2", 3, "kept")],
             {"parsed": 1, "skipped_unknown_business": 1, "skipped_duplicate_id": 0}),
        ]
        path = tmp_path / "review.json"
        for lines, kept, counts in cases:
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            reviews, counters = load_reviews(path, {"b1", "b2"})
            assert [(r.business_id, r.stars, r.text) for r in reviews] == kept
            assert {k: v for k, v in counters.as_dict().items() if v or k in counts} == counts

    def test_load_reviews_round_trip(self, tmp_path):
        path = tmp_path / "review.json"
        path.write_text(review_line("r1", "b1", 4, "nice") + "\n", encoding="utf-8")
        reviews, counters = load_reviews(path, {"b1"})
        assert reviews[0].text == "nice"
        assert counters.parsed == 1


def _write_lines(directory, lines):
    path = os.path.join(directory, "dump.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)
    return path


# Review lines that repeat ids, each of which a skip (bad stars, an unknown
# business, a malformed line) may hit first, with the line's index as text.
_REVIEW_LINES = st.lists(st.one_of(
    st.tuples(st.sampled_from(["r1", "r2", "r3", ""]), st.sampled_from(["b1", "b2", "ghost"]),
              st.sampled_from([1, 3, 5, 9, 2.5])),
    st.sampled_from(["{broken", '{"review_id": "r1"}', "[]", ""]),
), max_size=12).map(lambda drawn: [
    review_line(*line, f"line {i}") if isinstance(line, tuple) else line
    for i, line in enumerate(drawn)
])


@given(_REVIEW_LINES)
@settings(max_examples=150, deadline=None)
def test_load_reviews_is_parse_reviews_first_wins(lines):
    # load_reviews keeps what parse_reviews yields, the first record of each
    # review id read from its line, and counts the later ones.
    known = {"b1", "b2"}
    counters = ReviewCounters()
    expected, seen = [], set()
    for line in lines:
        for record in parse_reviews([line], known, counters):
            review_id = json.loads(line)["review_id"]
            if review_id in seen:
                counters.skipped_duplicate_id += 1
            else:
                seen.add(review_id)
                expected.append(record)
    with tempfile.TemporaryDirectory() as directory:
        assert load_reviews(_write_lines(directory, lines), known) == (expected, counters)


# Business lines that repeat ids, with malformed ones, non-restaurants and
# attribute fallbacks among them.
_BUSINESS_LINES = st.lists(st.one_of(
    st.builds(
        business_line,
        st.sampled_from(["b1", "b2", "b3", ""]),
        stars=st.sampled_from([4.0, 2.5, 7]),
        categories=st.sampled_from(["Restaurants", "Plumbing"]),
        attributes=st.dictionaries(st.sampled_from(["HasTV", "WiFi", "DogsAllowed"]),
                                   st.sampled_from(["True", "False", "maybe"]), max_size=2),
    ),
    st.sampled_from(["{broken", "[]", ""]),
), max_size=12)


@given(_BUSINESS_LINES)
@settings(max_examples=150, deadline=None)
def test_load_businesses_is_parse_businesses_first_wins(lines):
    counters = BusinessCounters()
    expected = {}
    for line in lines:
        for record in parse_businesses([line], counters):
            if record.business_id in expected:
                counters.skipped_duplicate_id += 1
            else:
                expected[record.business_id] = record
    with tempfile.TemporaryDirectory() as directory:
        records, loaded = load_businesses(_write_lines(directory, lines))
    assert list(records.items()) == list(expected.items())
    assert loaded == counters


@given(st.text(max_size=40))
@example("''")
@example(" 'a' ")
@example("u'x'")
@example("7")
@example("None")
@example("{}")
@example("{a: 1}")
@example(" maybe ")
@settings(max_examples=120, deadline=None)
def test_parse_attribute_value_total(raw):
    # parser must accept arbitrary garbage without raising; a parse counts a
    # fallback exactly when it hands back ``raw`` itself
    value = parse_attribute_value(raw)
    assert _fallbacks_counted(raw) == (value is raw)


# Maps inside the attribute grammar, for ast.literal_eval as the reference:
# strings hold no quotes, backslashes or line breaks, ints no leading zeros.
_GRAMMAR_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="'\"\\\n\r\x00"),
    max_size=12,
)

_GRAMMAR_STRING = st.builds(
    lambda prefix, quote, text: f"{prefix}{quote}{text}{quote}",
    st.sampled_from(["", "u"]), st.sampled_from(["'", '"']), _GRAMMAR_TEXT,
)
_GRAMMAR_LEAF = st.one_of(
    st.sampled_from(["True", "False", "None"]),
    st.integers(-10**20, 10**20).map(str),
    _GRAMMAR_STRING,
)
_IDENTIFIER = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    lambda key: key not in ("True", "False", "None")
)
_SPACE = st.sampled_from(["", " ", "\t", "\n  "])


def _map_text(entries):
    return "{" + ",".join(f"{sp}{key}{sp}:{sp}{leaf}" for key, leaf, sp in entries) + "}"


def _assert_same_map(parsed, expected):
    assert parsed == expected
    assert [type(v) for v in parsed.values()] == [type(v) for v in expected.values()]


@given(st.lists(st.tuples(_GRAMMAR_STRING, _GRAMMAR_LEAF, _SPACE), max_size=6))
@settings(max_examples=200, deadline=None)
def test_map_grammar_agrees_with_literal_eval(entries):
    raw = _map_text(entries)
    _assert_same_map(parse_attribute_value(raw), ast.literal_eval(raw))


@given(st.lists(st.tuples(_IDENTIFIER, _GRAMMAR_LEAF, _SPACE), max_size=6))
@settings(max_examples=200, deadline=None)
def test_bare_keys_read_like_quoted_keys(entries):
    quoted = _map_text([(f"'{key}'", leaf, sp) for key, leaf, sp in entries])
    _assert_same_map(parse_attribute_value(_map_text(entries)), ast.literal_eval(quoted))


@given(st.lists(st.text(max_size=60), max_size=20))
@settings(max_examples=60, deadline=None)
def test_business_counter_exactness_property(lines):
    counters = BusinessCounters()
    list(parse_businesses(lines, counters=counters))
    non_blank = sum(1 for l in lines if l.strip())
    total = counters.parsed + counters.skipped_malformed + counters.skipped_non_restaurant
    assert total == non_blank


@given(st.lists(st.text(max_size=60), max_size=20))
@settings(max_examples=60, deadline=None)
def test_review_counter_exactness_property(lines):
    counters = ReviewCounters()
    list(parse_reviews(lines, {"b1"}, counters))
    non_blank = sum(1 for l in lines if l.strip())
    total = (
        counters.parsed
        + counters.skipped_malformed
        + counters.skipped_unknown_business
        + counters.skipped_bad_stars
    )
    assert total == non_blank


def reference_review(obj, known):
    """The record, or None, and the counter one decoded review line adds to,
    from README's rules: both ids must be non-empty strings and the stars a
    number, not a bool (else malformed); the stars must be an integer in 1..5
    (else bad stars); the business must be known; a text that is not a string
    is empty."""
    review_id, business_id, stars = obj.get("review_id"), obj.get("business_id"), obj.get("stars")
    if not (type(review_id) is str and review_id != "" and type(business_id) is str
            and business_id != "" and type(stars) in (int, float)):
        return None, "skipped_malformed"
    if stars not in {1, 2, 3, 4, 5}:
        return None, "skipped_bad_stars"
    if business_id not in known:
        return None, "skipped_unknown_business"
    text = obj.get("text")
    return (business_id, int(stars), text if type(text) is str else ""), "parsed"


# Every JSON type a review field may hold, with the values at each rule's edge.
_REVIEW_FIELD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([0, 1, 3, 5, 6, -1, 10**20, 2**1024, -(2**1024)]),
    st.floats() | st.sampled_from([1.0, 3.0, 5.0, 2.5, 5.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "b1", "b2", "ghost", "r1"]) | st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)


@given(st.lists(st.fixed_dictionaries({}, optional=dict.fromkeys(
    ("review_id", "business_id", "stars", "text"), _REVIEW_FIELD
)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_review_classification_matches_reference(objects):
    known = {"b1", "b2"}
    counters = ReviewCounters()
    records = list(parse_reviews([json.dumps(obj) for obj in objects], known, counters))
    expected = [reference_review(obj, known) for obj in objects]
    assert [tuple(record) for record in records] == [
        record for record, _ in expected if record is not None
    ]
    counts = dict.fromkeys(
        ("parsed", "skipped_malformed", "skipped_unknown_business", "skipped_bad_stars"), 0
    )
    for _, counter in expected:
        counts[counter] += 1
    assert counters.as_dict() == {**counts, "skipped_duplicate_id": 0}


# Attribute values by name, each with what README's rules make of it: the
# features it adds, its fallbacks and its names outside the built-in
# features. A value that is not a string is read as its Python literal.
_ORACLE_ATTRIBUTES = {
    "WiFi": [("u'free'", {"wifi"}, 0, 0), ("u'no'", set(), 0, 0), ("'none'", set(), 0, 0)],
    "HasTV": [("True", {"hastv"}, 0, 0), ("False", set(), 0, 0), (True, {"hastv"}, 0, 0),
              (None, set(), 0, 0), ("definitely", set(), 1, 0)],
    "RestaurantsPriceRange2": [("2", {"restaurantspricerange2"}, 0, 0), ("0", set(), 0, 0),
                               (2.5, set(), 1, 0)],
    "Music": [("True", set(), 0, 1), ("{'dj': True}", set(), 0, 1)],
    "BusinessParking": [("{'lot': True, 'valet': False, 'rooftop': True}", {"lot"}, 0, 1),
                        ({"street": True}, {"street"}, 0, 0),
                        ("{'garage': True", set(), 1, 1), ([1, 2], set(), 1, 1)],
    "Ambience": [("{classy: True, 'romantic': False}", {"classy"}, 0, 0)],
}
_ORACLE_VALUE = {(name, repr(value)): outcome
                 for name, values in _ORACLE_ATTRIBUTES.items()
                 for value, *outcome in values}


def reference_business(obj):
    """The record, or None, the counter one decoded business line adds to,
    and its attribute fallbacks and unknown names, from README's rules. The
    id must be a non-empty string holding no carriage return or NUL, the
    stars a number (not a bool) on the half-star grid from 1 to 5, a
    ``review_count``, when present, a non-negative integer, and the
    attributes a map or absent or null; else the line is malformed and
    counts nothing else. Every other line counts its attributes. It is a
    restaurant when its categories, a comma-separated string or a list read
    item by item as text, hold "Restaurants" once stripped, in any case."""
    business_id, stars = obj.get("business_id"), obj.get("stars")
    review_count, attributes = obj.get("review_count", 0), obj.get("attributes")
    if not (type(business_id) is str and business_id != "" and "\r" not in business_id
            and "\0" not in business_id and type(stars) in (int, float)
            and stars in {1 + half / 2 for half in range(9)}
            and type(review_count) is int and review_count >= 0
            and (attributes is None or type(attributes) is dict)):
        return None, "skipped_malformed", 0, 0
    features, fallbacks, unknown = set(), 0, 0
    for name, value in (attributes or {}).items():
        present, value_fallbacks, value_unknown = _ORACLE_VALUE[name, repr(value)]
        features |= present
        fallbacks += value_fallbacks
        unknown += value_unknown
    categories = obj.get("categories")
    if type(categories) is str:
        categories = categories.split(",")
    elif type(categories) is not list:
        categories = []
    if not any(str(item).strip().lower() == "restaurants" for item in categories):
        return None, "skipped_non_restaurant", fallbacks, unknown
    return (business_id, float(stars), frozenset(features)), "parsed", fallbacks, unknown


# Values of every JSON type, for any business field. Each object is one the
# oracle can read as attributes.
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2), st.sampled_from([{}, {"Music": "True"}]),
)


def _business_field(valid, edges):
    """Valid values two times in three, else a value at one of the field's
    rules' edges or of any JSON type, so that most lines are well-formed."""
    return st.sampled_from([valid, valid, st.sampled_from(edges) | _ANY_JSON]).flatmap(
        lambda strategy: strategy)


_BUSINESS_FIELDS = {
    "business_id": _business_field(st.sampled_from(["b1", "b2"]) | st.text(min_size=1, max_size=3),
                                   ["", "cr\rid", "nul\0id"]),
    "stars": _business_field(st.sampled_from([1, 1.0, 2.5, 3.5, 5, 5.0]),
                             [0.5, 3.7, 5.5, "3.5", 2**1024, math.nan, math.inf]),
    "review_count": _business_field(st.integers(0, 10**20), [-1, 3.0, True, "many"]),
    "attributes": _business_field(
        st.none() | st.fixed_dictionaries({}, optional={
            name: st.sampled_from([value for value, *_ in values])
            for name, values in _ORACLE_ATTRIBUTES.items()
        }),
        [[], "{'lot': True}"]),
    "categories": _business_field(
        st.sampled_from(["Restaurants, Thai", "Thai,restaurants", " RESTAURANTS ",
                         ["Thai", " Restaurants "], [7, None, {"Restaurants": 1}, "restaurants"],
                         "Restaurant Supplies", "Auto Repair, Tires", "", ["Restaurant Supplies"],
                         [3.5, None, {"a": 1}], {"Restaurants": True}]),
        ["restaurants,", "Restaurants;Thai", ["Restaurants, Thai"]]),
}


@given(st.lists(st.fixed_dictionaries(
    {name: _BUSINESS_FIELDS[name] for name in ("business_id", "stars")},
    optional={name: _BUSINESS_FIELDS[name]
              for name in ("review_count", "attributes", "categories")},
), max_size=8))
@example([{"business_id": "b1", "stars": 4, "categories": "Auto Repair",
           "attributes": {"HasTV": "definitely", "Music": "True"}}])
@example([{"stars": 4, "categories": "Restaurants", "attributes": {"HasTV": "definitely"}}])
@settings(max_examples=300, deadline=None)
def test_business_classification_matches_reference(objects):
    # Validation comes before the categories, and every well-formed line,
    # restaurant or not, adds its attribute counts.
    counters = BusinessCounters()
    records = list(parse_businesses([json.dumps(obj) for obj in objects], counters))
    expected = [reference_business(obj) for obj in objects]
    assert [tuple(record) for record in records] == [
        record for record, *_ in expected if record is not None
    ]
    counts = dict.fromkeys(BusinessCounters.__slots__, 0)
    for _, counter, fallbacks, unknown in expected:
        counts[counter] += 1
        counts["attribute_fallbacks"] += fallbacks
        counts["unknown_feature_names"] += unknown
    assert counters.as_dict() == counts


# A small pool of raw values, so that businesses repeat them often; it holds
# leaves, maps, unknown names and fallbacks.
_ATTRIBUTE_NAMES = ("HasTV", "WiFi", "Alcohol", "RestaurantsPriceRange2",
                    "DogsAllowed", "BusinessParking", "Ambience")
_RAW_POOL = ("True", "False", "None", "1", "2", "u'free'", "u'no'", "'none'",
             "definitely", "{'lot': True, 'divey': True}",
             "{'garage': False, 'street': True}", "{'classy': True", "[1, 2]")


@given(st.lists(
    st.dictionaries(st.sampled_from(_ATTRIBUTE_NAMES), st.sampled_from(_RAW_POOL), max_size=5),
    max_size=12,
))
@settings(max_examples=100, deadline=None)
def test_cached_flatten_matches_uncached(attribute_maps):
    lines = [business_line(f"b{i}", attributes=attrs) for i, attrs in enumerate(attribute_maps)]
    counters = BusinessCounters()
    records = list(parse_businesses(lines, counters=counters))
    per_record = BusinessCounters()  # summed over the records by the uncached path
    for record, attrs in zip(records, attribute_maps, strict=True):
        assert record.features == flatten_features(attrs, per_record)
    assert counters.attribute_fallbacks == per_record.attribute_fallbacks
    assert counters.unknown_feature_names == per_record.unknown_feature_names


# Decoded JSON attribute values of every type, nested maps and lists included.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
    | st.sampled_from(_RAW_POOL) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(("lot", "classy", "divey", "x")) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _python_literal(value) -> str:
    """A dump value as text: strings verbatim, maps and lists by repr, and
    every other value by str."""
    if isinstance(value, str):
        return value
    return repr(value) if isinstance(value, (dict, list)) else str(value)


@given(st.lists(
    st.dictionaries(st.sampled_from(_ATTRIBUTE_NAMES) | st.text(max_size=6), _JSON_VALUE,
                    max_size=5),
    max_size=8,
))
@example([_NON_STRING_ATTRIBUTES])
@settings(max_examples=150, deadline=None)
def test_decoded_values_flatten_as_their_python_literal_text(attribute_maps):
    # A value of any JSON type is read in its Python-literal form, the same
    # way by parse_businesses, which decodes it from the line, and by
    # flatten_features, handed the map or its values' text one at a time.
    lines = [business_line(f"b{i}", attributes=attrs) for i, attrs in enumerate(attribute_maps)]
    counters = BusinessCounters()
    records = list(parse_businesses(lines, counters=counters))
    decoded, one_at_a_time = BusinessCounters(), BusinessCounters()
    for record, attrs in zip(records, attribute_maps, strict=True):
        assert record.features == flatten_features(attrs, decoded)
        assert record.features == frozenset().union(*(
            flatten_features({name: _python_literal(value)}, one_at_a_time)
            for name, value in attrs.items()
        ))
    for summed in (decoded, one_at_a_time):
        assert counters.attribute_fallbacks == summed.attribute_fallbacks
        assert counters.unknown_feature_names == summed.unknown_feature_names


def _reference_objects(lines):
    """The objects json.loads reads from the lines, and the count of
    non-blank lines it cannot read as an object."""
    objects, malformed = [], 0
    for line in lines:
        try:
            text = (line.decode("utf-8") if isinstance(line, bytes) else line).strip()
            if not text:
                continue
            obj = json.loads(text)
        except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
            malformed += 1
            continue
        if isinstance(obj, dict):
            objects.append(obj)
        else:
            malformed += 1
    return objects, malformed


def _assert_decodes_like_json_loads(parse, lines):
    records, counters = parse(lines)
    objects, malformed = _reference_objects(lines)
    # The reference's objects as lines that every JSON reader reads alike.
    expected, expected_counters = parse([json.dumps(obj) for obj in objects])
    assert records == expected
    expected_counters.skipped_malformed += malformed
    assert counters == expected_counters


_WELL_FORMED = (business_line("b1"), review_line("r1", "b1", 4, "fine"))
# Around a value: JSON whitespace, str.strip whitespace that JSON does not
# allow, a byte order mark, and characters that make trailing data.
_EDGE = st.text(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000\ufeffx{}[]\",:0", max_size=3)
_LINE = st.one_of(
    st.builds(lambda before, value, after: before + value + after, _EDGE,
              st.sampled_from(_WELL_FORMED + ("{}", "[]", "1", '"s"', "null", "{", "}")), _EDGE),
    st.text(max_size=30),
)
_RAW_LINE = st.one_of(
    _LINE, _LINE.map(lambda line: line.encode("utf-8", "surrogatepass")), st.binary(max_size=12)
)


@pytest.mark.parametrize("parse", [_business_pass, _review_pass], ids=["businesses", "reviews"])
@pytest.mark.parametrize("line", [
    "\ufeff{}", "{} x", "{}\x0b", "\x85{} ", "[]", "1",
    "\ufeff" + _WELL_FORMED[0], _WELL_FORMED[0] + " x", "\x85" + _WELL_FORMED[1] + "\x0b",
    "[" * 100_000,
    "1" + "0" * 5000,
    '{"business_id": "b1", "review_id": "r2", "stars": 4, "n": 1' + "0" * 5000 + "}",
    b"\xff\xfe{}", _WELL_FORMED[0].encode("utf-8") + b"\xc3",
], ids=["bom", "trailing_data", "trailing_vt", "leading_nel", "array", "number",
        "bom_record", "record_trailing_data", "record_in_strip_space", "deep_nesting",
        "long_int", "record_long_int", "non_utf8", "record_non_utf8"])
def test_decoder_matches_json_loads(parse, line):
    _assert_decodes_like_json_loads(parse, [*_WELL_FORMED, line, *_WELL_FORMED])


@given(st.lists(_RAW_LINE, max_size=12))
@settings(max_examples=150, deadline=None)
def test_decoder_matches_json_loads_property(lines):
    for parse in (_business_pass, _review_pass):
        _assert_decodes_like_json_loads(parse, lines)
