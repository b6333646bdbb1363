"""Shared builders for the test suite.

The raw-line builders emit JSON-lines records shaped like the public Yelp
business and review dumps, including the quirk that attribute values are
Python-literal-style strings. ``attributes_for`` inverts the flattener: it
builds a raw attribute map whose flattened feature set is exactly the
requested one, spreading absent members across grouped maps and explicit
"off" markers so both presence and absence paths get exercised.
"""

import json

import pytest

from ratingsift import BusinessRecord, ReviewRecord

# Canonical feature name -> its raw attribute key, for plain flag attributes.
SCALAR_FLAGS = {
    "hastv": "HasTV",
    "bikeparking": "BikeParking",
    "restaurantstakeout": "RestaurantsTakeOut",
    "businessacceptscreditcards": "BusinessAcceptsCreditCards",
    "caters": "Caters",
    "restaurantsgoodforgroups": "RestaurantsGoodForGroups",
    "restaurantstableservice": "RestaurantsTableService",
    "restaurantscounterservice": "RestaurantsCounterService",
    "restaurantsreservations": "RestaurantsReservations",
    "restaurantsdelivery": "RestaurantsDelivery",
    "outdoorseating": "OutdoorSeating",
    "goodforkids": "GoodForKids",
}

# Enumerated attributes: (raw key, a value meaning present, one meaning absent).
ENUM_FLAGS = {
    "wifi": ("WiFi", "u'free'", "u'no'"),
    "alcohol": ("Alcohol", "u'full_bar'", "u'none'"),
    "noiselevel": ("NoiseLevel", "u'average'", "u'none'"),
    "restaurantsattire": ("RestaurantsAttire", "u'casual'", "u'none'"),
}

_PRICE = ("RestaurantsPriceRange2", "2")

# Grouped map attributes and the canonical members they carry.
GROUPED_MAPS = {
    "BusinessParking": ("garage", "street", "validated", "lot", "valet"),
    "GoodForMeal": ("dessert", "latenight", "lunch", "dinner", "breakfast", "brunch"),
    "Ambience": (
        "classy", "romantic", "intimate", "hipster",
        "touristy", "trendy", "upscale", "casual",
    ),
}

# The worked-example pair used across the suite: restaurant A holds all 19
# features, restaurant B only the 14 shared ones.
REFERENCE_COMMON = frozenset({
    "hastv", "restaurantspricerange2", "noiselevel", "lot",
    "restaurantstakeout", "bikeparking", "businessacceptscreditcards",
    "dinner", "caters", "restaurantsgoodforgroups",
    "restaurantstableservice", "lunch", "restaurantsreservations", "casual",
})
REFERENCE_GAP = frozenset({
    "alcohol", "wifi", "outdoorseating", "restaurantsdelivery", "brunch",
})
REFERENCE_A_FEATURES = REFERENCE_COMMON | REFERENCE_GAP
REFERENCE_B_FEATURES = REFERENCE_COMMON


def attributes_for(present, absent_markers=True):
    """Raw attribute map whose flattened features equal ``present`` exactly."""
    present = set(present)
    attrs = {}
    for name, key in SCALAR_FLAGS.items():
        if name in present:
            attrs[key] = "True"
        elif absent_markers:
            attrs[key] = "False"
    for name, (key, on, off) in ENUM_FLAGS.items():
        if name in present:
            attrs[key] = on
        elif absent_markers:
            attrs[key] = off
    if "restaurantspricerange2" in present:
        attrs[_PRICE[0]] = _PRICE[1]
    for key, members in GROUPED_MAPS.items():
        wanted = [m for m in members if m in present]
        if wanted or absent_markers:
            body = ", ".join(
                f"'{m}': {'True' if m in present else 'False'}" for m in members
            )
            attrs[key] = "{" + body + "}"
    return attrs


def business_line(business_id, stars=3.5, name=None, categories="Restaurants, Diners",
                  review_count=25, attributes=None, **extra):
    obj = {
        "business_id": business_id,
        "name": name if name is not None else f"Place {business_id}",
        "stars": stars,
        "review_count": review_count,
        "categories": categories,
        "attributes": attributes if attributes is not None else {},
    }
    obj.update(extra)
    return json.dumps(obj)


def review_line(review_id, business_id, stars, text, user_id="user001",
                date="2016-05-01", **extra):
    obj = {
        "review_id": review_id,
        "business_id": business_id,
        "user_id": user_id,
        "stars": stars,
        "text": text,
        "date": date,
    }
    obj.update(extra)
    return json.dumps(obj)


def make_business(business_id, features, stars=3.5):
    """Record built directly, for tests that start past the parsing layer."""
    return BusinessRecord(
        business_id=business_id,
        overall_stars=stars,
        features=frozenset(features),
    )


def make_review(business_id, stars, text):
    return ReviewRecord(business_id=business_id, stars=stars, text=text)


@pytest.fixture
def reference_pair():
    """Two records whose feature sets reproduce the worked example."""
    a = make_business("ref_a", REFERENCE_A_FEATURES, stars=4.0)
    b = make_business("ref_b", REFERENCE_B_FEATURES, stars=2.5)
    return a, b


@pytest.fixture
def lexicon_file(tmp_path):
    """Small valence lexicon on disk, AFINN-style term TAB integer lines."""
    entries = [
        ("great", 3), ("tasty", 2), ("friendly", 2), ("loved", 3),
        ("amazing", 4), ("wonderful", 4), ("delicious", 3), ("fresh", 1),
        ("terrible", -3), ("slow", -2), ("bland", -2), ("awful", -3),
        ("horrible", -3), ("noisy", -2), ("dirty", -2), ("rude", -3),
    ]
    path = tmp_path / "lexicon.txt"
    path.write_text(
        "".join(f"{term}\t{valence}\n" for term, valence in entries),
        encoding="utf-8",
    )
    return path
