"""Attribute parsing, flattening, and streaming file ingest."""

import ast
import io
import json

import pytest
from hypothesis import given, settings
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
from ratingsift.ingest import BusinessRecord, ReviewRecord

from conftest import (
    REFERENCE_A_FEATURES,
    REFERENCE_B_FEATURES,
    attributes_for,
    business_line,
    make_business,
    review_line,
)


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
        counters = BusinessCounters()
        assert parse_attribute_value(raw, counters) == raw
        assert counters.attribute_fallbacks == 1

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
    def _record(self, attrs):
        return BusinessRecord(
            business_id="b1", name="B", overall_stars=3.0, review_count=1,
            raw_attributes=attrs, features=frozenset(), is_restaurant=True,
        )

    def test_scalar_and_map_attributes_combine(self):
        attrs = {
            "HasTV": "True",
            "WiFi": "u'free'",
            "BusinessParking": "{'garage': False, 'street': True}",
            "Ambience": "{'classy': True, 'hipster': False}",
        }
        features = flatten_features(self._record(attrs))
        assert features == {"hastv", "wifi", "street", "classy"}

    def test_absent_values_do_not_contribute(self):
        attrs = {"HasTV": "False", "WiFi": "u'no'", "Alcohol": "u'none'"}
        assert flatten_features(self._record(attrs)) == frozenset()

    def test_unknown_names_counted_not_kept(self):
        counters = BusinessCounters()
        attrs = {"DogsAllowed": "True", "Ambience": "{'divey': True, 'classy': True}"}
        features = flatten_features(self._record(attrs), counters=counters)
        assert features == {"classy"}
        assert counters.unknown_feature_names == 2

    def test_map_containers_are_structural(self):
        counters = BusinessCounters()
        attrs = {"BusinessParking": "{'lot': True}"}
        features = flatten_features(self._record(attrs), counters=counters)
        assert features == {"lot"}
        # the container name itself is not an unknown feature
        assert counters.unknown_feature_names == 0

    def test_opaque_fallback_value_is_absent(self):
        counters = BusinessCounters()
        attrs = {"HasTV": "definitely"}
        assert flatten_features(self._record(attrs), counters=counters) == frozenset()
        assert counters.attribute_fallbacks == 1

    def test_attributes_for_builder_is_exact(self):
        for wanted in (REFERENCE_A_FEATURES, REFERENCE_B_FEATURES, frozenset()):
            record = self._record(attributes_for(wanted))
            assert flatten_features(record) == wanted


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

    def test_restaurants_only_false_keeps_everything(self):
        lines = [
            business_line("b1", categories="Restaurants"),
            business_line("b2", categories="Auto Repair"),
        ]
        counters = BusinessCounters()
        records = list(parse_businesses(lines, counters=counters, restaurants_only=False))
        assert [r.business_id for r in records] == ["b1", "b2"]
        assert records[1].is_restaurant is False
        assert counters.skipped_non_restaurant == 0

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
        attributes = {
            "WiFi": True,
            "RestaurantsPriceRange2": 2,
            "BusinessParking": {"garage": True, "lot": False},
            "Ambience": {"classy": {"x": 1}},  # nested map: fallback, unknown name
            "HasTV": None,
            "Caters": 2.5,                     # fallback, absent
            "Music": ["a"],                    # fallback, unknown name
        }
        counters = BusinessCounters()
        lines = [business_line("b1", attributes=attributes)]
        records = list(parse_businesses(lines, counters=counters))
        assert records[0].features == {"garage", "restaurantspricerange2", "wifi"}
        assert counters.attribute_fallbacks == 3
        assert counters.unknown_feature_names == 2

    def test_accepts_binary_stream(self):
        data = (business_line("b1") + "\n").encode("utf-8")
        records = list(parse_businesses(io.BytesIO(data)))
        assert records[0].business_id == "b1"

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

        def counting(raw, counters=None):
            calls.append(raw)
            return real(raw, counters)

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
        assert [r.review_id for r in reviews] == ["r1"]
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
        del obj[field]
        counters = ReviewCounters()
        assert list(parse_reviews([json.dumps(obj)], {"b1"}, counters)) == []
        assert counters.skipped_malformed == 1

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
            business_line("b1", name="First") + "\n"
            + business_line("b1", name="Second") + "\n",
            encoding="utf-8",
        )
        records, counters = load_businesses(path)
        assert records["b1"].name == "First"
        assert counters.skipped_duplicate_id == 1
        assert counters.parsed == 2

    def test_load_businesses_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_businesses(tmp_path / "nope.json")

    def test_load_reviews_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_reviews(tmp_path / "nope.json", {"b1"})

    def test_load_reviews_dedupes_first_wins(self, tmp_path):
        path = tmp_path / "review.json"
        path.write_text(
            review_line("r1", "b1", 4, "first") + "\n"
            + review_line("r2", "b1", 4, "other") + "\n"
            + review_line("r1", "b1", 2, "second") + "\n",
            encoding="utf-8",
        )
        reviews, counters = load_reviews(path, {"b1"})
        assert [(r.review_id, r.text) for r in reviews] == [("r1", "first"), ("r2", "other")]
        assert counters.skipped_duplicate_id == 1
        assert counters.parsed == 3

    def test_load_reviews_round_trip(self, tmp_path):
        path = tmp_path / "review.json"
        path.write_text(review_line("r1", "b1", 4, "nice") + "\n", encoding="utf-8")
        reviews, counters = load_reviews(path, {"b1"})
        assert reviews[0].text == "nice"
        assert counters.parsed == 1


class TestRecordSerialization:
    def test_business_round_trip(self):
        record = make_business("b1", {"wifi", "dinner"})
        assert BusinessRecord.from_json_dict(record.to_json_dict()) == record

    def test_review_round_trip(self):
        review = ReviewRecord(
            review_id="r1", business_id="b1", user_id="u1",
            stars=4, text="good", date="2016-05-01",
        )
        assert ReviewRecord.from_json_dict(review.to_json_dict()) == review

    def test_business_json_dict_is_json_safe(self):
        record = make_business("b1", {"wifi"})
        json.dumps(record.to_json_dict())


@given(st.text(max_size=40))
@settings(max_examples=120, deadline=None)
def test_parse_attribute_value_total(raw):
    # parser must accept arbitrary garbage without raising
    parse_attribute_value(raw)


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
    list(parse_businesses(lines, counters=counters, restaurants_only=False))
    non_blank = sum(1 for l in lines if l.strip())
    assert counters.parsed + counters.skipped_malformed == non_blank


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
    for record in records:
        assert record.features == flatten_features(record, per_record)
    assert counters.attribute_fallbacks == per_record.attribute_fallbacks
    assert counters.unknown_feature_names == per_record.unknown_feature_names
