"""Seeded generator for the ratingsift benchmark inputs.

Builds a Yelp-style business dump, a review dump and an AFINN-style lexicon
from a seed and a workload shape. Well-formed lines come from the
``business_line`` / ``review_line`` / ``attributes_for`` builders in
``tests/conftest.py``; this module adds the quirks a real dump carries
(bare-key maps, unparseable values, unknown attribute names, non-restaurants,
malformed lines, duplicate ids, reviews of unknown businesses, bad stars),
each at a rate set per workload, and counts every one it injects so the benchmark can
check the ingest summary exactly.

Run on its own to inspect a corpus:

    python3 perfbench/generate.py --workload reviews --seed 1 --out /tmp/corpus
"""

import argparse
import bisect
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import (  # noqa: E402  (path set up above)
    ENUM_FLAGS,
    GROUPED_MAPS,
    SCALAR_FLAGS,
    attributes_for,
    business_line,
    review_line,
)

ID_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

# Every feature attributes_for can emit; all are in the default taxonomy.
FEATURES = (
    sorted(SCALAR_FLAGS) + sorted(ENUM_FLAGS) + ["restaurantspricerange2"]
    + [m for members in GROUPED_MAPS.values() for m in members]
)

# Values that parse_attribute_value cannot read; each costs one fallback.
UNPARSEABLE = ("u'free", "maybe", "2.5", "{'a': {'b': 1}}", "{garage True}", "{broken")
# Attribute names and map keys outside the taxonomy universe.
UNKNOWN_KEYS = ("DogsAllowed", "Smoking", "CoatCheck", "HappyHour", "DriveThru")
UNKNOWN_MAP_KEYS = ("divey", "vegan", "street_food")

# Head of the Zipf ranking: words tokenize() drops, as in real text.
FILLER = ("the", "and", "was", "it", "to", "of", "we", "my", "for", "with",
          "this", "is", "that", "they", "but", "had")

POSITIVE = ("great", "tasty", "friendly", "loved", "amazing", "wonderful",
            "delicious", "fresh", "perfect", "excellent", "cozy", "generous",
            "attentive", "crispy", "recommend", "favorite", "awesome", "best",
            "charming", "lovely")
NEGATIVE = ("terrible", "slow", "bland", "awful", "horrible", "noisy", "dirty",
            "rude", "cold", "greasy", "overpriced", "stale", "soggy", "worst",
            "disappointing", "bad", "burnt", "salty", "mediocre", "gross")

SYLLABLES = ("ka", "lo", "mi", "ter", "ban", "sto", "ri", "vel", "qua", "dor",
             "pen", "za", "mu", "fio", "gra", "nel", "sha", "tur", "bi", "con",
             "del", "ex", "ho", "jun", "pra", "sil", "ver", "wan", "yo", "zen")

# Assumed, not measured: skewed to 4 and 5 stars, as review sites are.
STAR_WEIGHTS = (0.12, 0.10, 0.15, 0.28, 0.35)
# Word frequencies in natural text follow Zipf's law with an exponent near 1
# (Zipf 1949; Piantadosi 2014). The exact value here is assumed.
ZIPF_EXPONENT = 1.07
# Assumed share of review tokens drawn from the lexicon: enough that every
# star document scores, few enough that filler words dominate.
LEXICON_SHARE = 0.05


@dataclass(frozen=True)
class Shape:
    """Sizes and quirk rates of one generated corpus."""

    restaurants: int
    reviews_per_business: tuple[int, int]  # inclusive range, drawn uniformly
    tokens_per_review: tuple[int, int]
    vocabulary: int
    full_attributes: float  # share of businesses with explicit "off" markers
    bare_key_maps: float  # per map attribute
    unparseable: float  # per business, one scalar value made unreadable
    unknown_keys: float  # per business, one unknown attribute name
    unknown_map_keys: float  # per map attribute, one unknown key inside it
    non_restaurants: float  # extra lines, as a share of restaurants
    malformed_businesses: float
    duplicate_businesses: float
    malformed_reviews: float  # extra review lines, as a share of good ones
    unknown_business_reviews: float
    bad_star_reviews: float
    empty_reviews: float  # share of good reviews with text that tokenizes to nothing


@dataclass
class Corpus:
    business_path: Path
    reviews_path: Path
    lexicon_path: Path
    restaurant_ids: list  # unique restaurant ids, in file order
    expected_summary: dict  # the ingest summary the CLI must print
    lexicon_counts: dict  # loaded / multiword / malformed lines written
    stats: dict  # shape facts recorded with each run


def _make_ids(rng, count, taken):
    out = []
    while len(out) < count:
        candidate = "".join(rng.choices(ID_ALPHABET, k=22))
        if candidate not in taken:
            taken.add(candidate)
            out.append(candidate)
    return out


def _make_words(rng, count, exclude):
    words, seen = [], set(exclude)
    while len(words) < count:
        word = "".join(rng.choices(SYLLABLES, k=rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _bare_key_map(members):
    """A grouped map with unquoted keys, the form literal_eval rejects."""
    return "{" + ", ".join(f"{name}: {flag}" for name, flag in members) + "}"


def _business_attributes(rng, shape):
    """Raw attribute map plus the (fallbacks, unknown names) it will cost."""
    present = rng.sample(FEATURES, rng.randint(3, len(FEATURES) - 2))
    attrs = attributes_for(present, absent_markers=rng.random() < shape.full_attributes)
    fallbacks = unknown = 0
    for key, members in GROUPED_MAPS.items():
        if key not in attrs:
            continue
        pairs = [(m, "True" if m in present else "False") for m in members]
        if rng.random() < shape.unknown_map_keys:
            pairs.append((rng.choice(UNKNOWN_MAP_KEYS), rng.choice(("True", "False"))))
            unknown += 1
        if rng.random() < shape.bare_key_maps:
            attrs[key] = _bare_key_map(pairs)
        else:
            attrs[key] = "{" + ", ".join(f"'{n}': {f}" for n, f in pairs) + "}"
    if rng.random() < shape.unparseable:
        scalar_keys = [k for k in attrs if k not in GROUPED_MAPS]
        if scalar_keys:
            attrs[rng.choice(scalar_keys)] = rng.choice(UNPARSEABLE)
            fallbacks += 1
    if rng.random() < shape.unknown_keys:
        attrs[rng.choice(UNKNOWN_KEYS)] = rng.choice(("True", "False", "u'yes'"))
        unknown += 1
    return attrs, fallbacks, unknown


def _malformed_business(rng, business_id):
    kind = rng.randrange(4)
    if kind == 0:
        line = business_line(business_id)
        return line[: rng.randint(5, len(line) - 2)].encode()
    if kind == 1:
        return business_line(business_id, stars=3.7).encode()
    if kind == 2:
        return b"[1, 2, 3]"
    return b"\xff\xfe not utf-8"


def _malformed_review(rng, review_id, business_id):
    kind = rng.randrange(3)
    if kind == 0:
        line = review_line(review_id, business_id, 4, "cut short")
        return line[: rng.randint(5, len(line) - 2)]
    if kind == 1:
        return json.dumps({"business_id": business_id, "stars": 4, "text": "no id"})
    return review_line(review_id, business_id, "4", "stars as a string")


def _zipf_cum_weights(n):
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** ZIPF_EXPONENT
        out.append(total)
    return out


def _write_lexicon(rng, path, extra_words):
    """AFINN-style term TAB valence file with multi-word and malformed lines."""
    entries = [(w, rng.randint(1, 4)) for w in POSITIVE]
    entries += [(w, -rng.randint(1, 4)) for w in NEGATIVE]
    entries += [(w, rng.choice((-3, -2, -1, 1, 2, 3))) for w in extra_words]
    rng.shuffle(entries)
    lines = [f"{term}\t{valence}" for term, valence in entries]
    multiword = ["not good\t-2", "must try\t3", "never again\t-3", "well done\t2"]
    malformed = ["no tab here", "tasty\tvery", "spicy\t9", "a\tb\tc"]
    for extra in multiword + malformed:
        lines.insert(rng.randrange(len(lines) + 1), extra)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"loaded": len(entries), "multiword": len(multiword), "malformed": len(malformed)}


def generate(shape: Shape, seed: int, out_dir: Path) -> Corpus:
    """Write the corpus for ``shape`` under ``out_dir``; same seed, same bytes."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    taken = set()
    restaurant_ids = _make_ids(rng, shape.restaurants, taken)
    n_other = round(shape.restaurants * shape.non_restaurants)
    other_ids = _make_ids(rng, n_other, taken)

    # businesses ---------------------------------------------------------
    bsum = dict(parsed=0, skipped_malformed=0, skipped_non_restaurant=0,
                skipped_duplicate_id=0, attribute_fallbacks=0, unknown_feature_names=0)
    lines, restaurant_lines = [], []
    attribute_values = []
    entries = [(bid, True) for bid in restaurant_ids] + [(bid, False) for bid in other_ids]
    rng.shuffle(entries)
    for business_id, is_restaurant in entries:
        attrs, fallbacks, unknown = _business_attributes(rng, shape)
        attribute_values.extend(attrs.values())
        line = business_line(
            business_id,
            stars=rng.choice((1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)),
            categories="Restaurants, " + rng.choice(("Diners", "Pizza", "Thai", "Bars"))
            if is_restaurant else rng.choice(("Shopping, Retail", "Home Services", "Dentists")),
            review_count=rng.randint(0, 900),
            attributes=attrs,
        ).encode()
        lines.append(line)
        bsum["attribute_fallbacks"] += fallbacks
        bsum["unknown_feature_names"] += unknown
        if is_restaurant:
            bsum["parsed"] += 1
            restaurant_lines.append((line, fallbacks, unknown))
        else:
            bsum["skipped_non_restaurant"] += 1
    for _ in range(round(shape.restaurants * shape.duplicate_businesses)):
        line, fallbacks, unknown = rng.choice(restaurant_lines)
        lines.insert(rng.randrange(len(lines) + 1), line)
        bsum["parsed"] += 1
        bsum["skipped_duplicate_id"] += 1
        bsum["attribute_fallbacks"] += fallbacks
        bsum["unknown_feature_names"] += unknown
    for _ in range(round(shape.restaurants * shape.malformed_businesses)):
        lines.insert(rng.randrange(len(lines) + 1), _malformed_business(rng, rng.choice(restaurant_ids)))
        bsum["skipped_malformed"] += 1
    lines.insert(rng.randrange(len(lines) + 1), b"   ")  # blank lines are not counted
    business_path = out_dir / "business.json"
    business_path.write_bytes(b"\n".join(lines) + b"\n")

    # lexicon and vocabulary --------------------------------------------
    extra_lexicon = _make_words(rng, 60, FILLER)
    lexicon_path = out_dir / "lexicon.txt"
    lexicon_counts = _write_lexicon(rng, lexicon_path, extra_lexicon)
    vocabulary = list(FILLER) + _make_words(
        rng, shape.vocabulary, set(FILLER) | set(POSITIVE) | set(NEGATIVE) | set(extra_lexicon))
    vocab_cum = _zipf_cum_weights(len(vocabulary))
    # Sentiment words lean positive on high stars and negative on low ones.
    lexicon_words = list(POSITIVE) + list(NEGATIVE) + extra_lexicon
    lexicon_cum = {}
    for stars in range(1, 6):
        positive_weight = stars / 6
        weights = ([positive_weight] * len(POSITIVE) + [1 - positive_weight] * len(NEGATIVE)
                   + [0.3] * len(extra_lexicon))
        lexicon_cum[stars] = list(itertools.accumulate(weights))
    star_cum = list(itertools.accumulate(STAR_WEIGHTS))

    # reviews -------------------------------------------------------------
    rsum = dict(parsed=0, skipped_malformed=0, skipped_unknown_business=0, skipped_bad_stars=0)
    review_lines = []
    serial = itertools.count()
    token_total = 0
    per_business = []
    for business_id in restaurant_ids:
        count = rng.randint(*shape.reviews_per_business)
        per_business.append(count)
        for _ in range(count):
            stars = 1 + bisect.bisect(star_cum, rng.random() * star_cum[-1])
            n_tokens = rng.randint(*shape.tokens_per_review)
            n_lexicon = sum(1 for _ in range(n_tokens) if rng.random() < LEXICON_SHARE)
            if rng.random() < shape.empty_reviews:
                text = rng.choice(("", "!!! ...", "The and the, it was."))
                n_tokens = 0
            else:
                words = rng.choices(vocabulary, cum_weights=vocab_cum, k=n_tokens - n_lexicon)
                words += rng.choices(lexicon_words, cum_weights=lexicon_cum[stars], k=n_lexicon)
                rng.shuffle(words)
                text = " ".join(words).capitalize() + "."
            token_total += n_tokens
            review_lines.append(review_line(
                f"r{next(serial):08d}", business_id, stars, text,
                user_id=f"u{rng.randrange(10 ** 6):06d}",
                date=f"20{rng.randint(10, 19)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            ))
            rsum["parsed"] += 1
    n_good = len(review_lines)
    strays = other_ids + ["ghost-" + str(i) for i in range(20)]
    for _ in range(round(n_good * shape.unknown_business_reviews)):
        review_lines.insert(rng.randrange(n_good), review_line(
            f"r{next(serial):08d}", rng.choice(strays), rng.randint(1, 5), "never ingested"))
        rsum["skipped_unknown_business"] += 1
    for _ in range(round(n_good * shape.bad_star_reviews)):
        review_lines.insert(rng.randrange(n_good), review_line(
            f"r{next(serial):08d}", rng.choice(restaurant_ids), rng.choice((0, 6, 3.5)), "bad stars"))
        rsum["skipped_bad_stars"] += 1
    for _ in range(round(n_good * shape.malformed_reviews)):
        review_lines.insert(rng.randrange(n_good), _malformed_review(
            rng, f"r{next(serial):08d}", rng.choice(restaurant_ids)))
        rsum["skipped_malformed"] += 1
    reviews_path = out_dir / "review.json"
    reviews_path.write_text("\n".join(review_lines) + "\n", encoding="utf-8")

    stats = {
        "business_lines": len(lines),
        "business_bytes": business_path.stat().st_size,
        "review_lines": len(review_lines),
        "review_bytes": reviews_path.stat().st_size,
        "restaurants": len(restaurant_ids),
        "reviews_per_business": round(sum(per_business) / len(per_business), 3),
        "tokens_per_review": round(token_total / max(rsum["parsed"], 1), 3),
        "vocabulary_size": len(vocabulary),
        "distinct_attribute_value_share": round(
            len(set(attribute_values)) / max(len(attribute_values), 1), 6),
    }
    return Corpus(
        business_path=business_path,
        reviews_path=reviews_path,
        lexicon_path=lexicon_path,
        restaurant_ids=restaurant_ids,
        expected_summary={"businesses": bsum, "reviews": rsum},
        lexicon_counts=lexicon_counts,
        stats=stats,
    )


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    corpus = generate(WORKLOADS[args.workload].shape(args.scale), args.seed, args.out)
    print(json.dumps({"expected_summary": corpus.expected_summary,
                      "lexicon": corpus.lexicon_counts, "stats": corpus.stats}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
