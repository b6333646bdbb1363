"""Tokenization, TF-IDF topics, and lexicon sentiment."""

import math
import re
import string
import sys
import tempfile
from collections import Counter
from itertools import repeat
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratingsift import (
    CorpusStats,
    LexiconCounters,
    SentimentLexicon,
    StarDocument,
    Workspace,
    build_star_documents,
    build_topic_profiles,
    cohort_scores,
    sentiment_score,
    tfidf,
    tokenize,
    top_terms,
)
from ratingsift import sentiment
from ratingsift.sentiment import _TOKEN_RE
from ratingsift.stopwords import STOPWORDS

from conftest import make_review


def doc(business_id="b1", stars=3, **counts):
    return StarDocument(business_id=business_id, stars=stars, term_counts=counts)


class TestTokenize:
    def test_hyphen_and_underscore_split(self):
        assert tokenize("Wi-Fi wi_fi") == ["wi", "fi", "wi", "fi"]

    def test_lowercases(self):
        assert tokenize("GREAT Pasta") == ["great", "pasta"]

    def test_short_tokens_dropped(self):
        assert tokenize("a I x pasta") == ["pasta"]

    def test_stopwords_dropped(self):
        assert tokenize("the food was not on our table") == ["food", "table"]

    def test_every_stopword_is_a_token_tokenize_can_emit(self):
        for word in STOPWORDS:
            assert word == word.lower() and len(word) >= 2, word
            assert _TOKEN_RE.fullmatch(word) and "_" not in word, word

    def test_digits_kept(self):
        assert tokenize("waited 45 minutes") == ["waited", "45", "minutes"]

    def test_punctuation_boundary(self):
        assert tokenize("good!bad,ugly...fine") == ["good", "bad", "ugly", "fine"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_preserves_multiplicity_and_order(self):
        assert tokenize("pasta pasta salad pasta") == ["pasta", "pasta", "salad", "pasta"]


def reference_tokenize(text):
    """``tokenize`` as first written: runs of alphanumerics of the lowercased
    text, then a per-token length and stopword check."""
    return [token for token in re.findall(r"[^\W_]+", text.lower())
            if len(token) >= 2 and token not in STOPWORDS]


# Characters where \w and alphanumerics part, lowercasing changes length or
# case folds differ, or a script is neither Latin nor ASCII digits.
_TOKEN_EDGE_CHARS = "aZ09 _-Σσςİ\u0301١二😀’\t\n\r\x00\x0b\x1f\x85\u2028"


@given(st.one_of(st.text(), st.text(st.sampled_from(_TOKEN_EDGE_CHARS))))
@example("snake_case __init__ a_b_c x_")
@example("ΣΑΣ İstanbul café cafe\u0301 ١٢ 二十 😀😀 don’t")
@settings(max_examples=300, deadline=None)
def test_tokenize_matches_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_tokenize_matches_reference_on_every_code_point():
    # Every code point twice, alone between spaces: a run of two wherever the
    # reference takes the character as alphanumeric.
    text = " ".join(map(mul, map(chr, range(sys.maxunicode + 1)), repeat(2)))
    assert tokenize(text) == reference_tokenize(text)


# Text that is ASCII once lowercased is split without the regex; the tests
# above rarely draw a string that is all ASCII.
_ASCII = list(map(chr, range(128)))


def test_ascii_tokenize_matches_reference_on_every_ascii_code_point():
    text = " ".join(map(mul, _ASCII, repeat(2)))
    assert text.isascii()
    assert tokenize(text) == reference_tokenize(text)


def test_ascii_tokenize_matches_reference_on_every_pair_between_letters():
    # Each ordered pair either joins the two letters into one run, splits
    # them, or adds a run of its own.
    texts = [f"Q{a}{b}z" for a in _ASCII for b in _ASCII]
    assert list(map(tokenize, texts)) == list(map(reference_tokenize, texts))


@given(st.text(st.characters(max_codepoint=127)))
@example("Snake_Case __INIT__ don't e-mail 3x 45 I a")
@settings(max_examples=300, deadline=None)
def test_ascii_tokenize_matches_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "\u212aELVIN",  # the Kelvin sign lowercases to ASCII "k"
    "İstanbul",  # "İ" lowercases to "i" plus U+0307, which is not ASCII
])
def test_tokenize_tests_the_lowercased_text_for_ascii(text):
    assert not text.isascii()
    assert tokenize(text) == reference_tokenize(text)


# Where one text's end meets the next one's start: a final sigma (lowercasing
# looks past case-ignorable characters such as "'" for a cased letter), the
# gate's two non-ASCII letters that lowercase to or through ASCII, a
# combining mark, "_", and ASCII beside non-ASCII.
_JOIN_EDGE_CHARS = "ΣσςİK\u212a\u0301_'.aZ9 é"
_join_text = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=127)),
    st.text(st.sampled_from(_JOIN_EDGE_CHARS + _TOKEN_EDGE_CHARS), max_size=8),
)


@given(st.lists(_join_text, max_size=6))
@example(["ΟΔΟΣ", "ΣΑ"])
@example(["aΣ'", "'Σb", "Σ"])
@example(["\u0301abc", "", "", "d\u0301ef"])
@example(["snake_", "_case", "x"])
@example(["plain ascii", "café", "\u212aelvin", "İstanbul"])
@settings(max_examples=300, deadline=None)
def test_tokenize_of_joined_texts_is_tokenize_of_each(texts):
    # build_star_documents tokenizes a document's texts joined with spaces.
    assert tokenize(" ".join(texts)) == [term for text in texts for term in tokenize(text)]


def reference_star_documents(reviews, cohort_ids):
    """``build_star_documents`` as first written: one tokenize call per review."""
    buckets = {}
    for review in reviews:
        if review.business_id in cohort_ids:
            key = (review.business_id, review.stars)
            buckets.setdefault(key, Counter()).update(tokenize(review.text))
    return [StarDocument(bid, stars, dict(buckets[bid, stars])) for bid, stars in sorted(buckets)]


_review_texts = st.one_of(
    st.text(st.sampled_from(_JOIN_EDGE_CHARS), max_size=6),
    st.lists(st.sampled_from(["great", "pasta", "the", "rude", "wine", "café", "ΟΔΟΣ"]),
             max_size=4).map(" ".join),
)
_reviews = st.lists(st.builds(
    make_review, st.sampled_from(["b1", "b2", "b3"]), st.integers(1, 5), _review_texts,
), max_size=20)


@given(_reviews, st.data())
@settings(max_examples=200, deadline=None)
def test_star_documents_match_per_review_reference_in_any_order(reviews, data):
    shuffled = data.draw(st.permutations(reviews))
    cohort = {"b1", "b2"}
    expected = reference_star_documents(reviews, cohort)
    assert build_star_documents(shuffled, cohort) == expected
    # As score passes them: popped off the list one at a time, in reverse.
    assert build_star_documents((shuffled.pop() for _ in range(len(shuffled))), cohort) == expected


def test_star_document_texts_tokenize_in_one_call_per_script(monkeypatch):
    # Interleaved businesses and stars: each document's ASCII texts are
    # tokenized in one call, and a document's non-ASCII texts in one more.
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    reviews = [
        make_review("b1", 5, "great pasta"),
        make_review("b2", 5, "fine pasta"),
        make_review("b1", 1, "rude waiter"),
        make_review("b3", 2, "outside the cohort"),
        make_review("b1", 5, "great wine café"),
        make_review("b2", 5, "cold pasta"),
        make_review("b1", 5, "the the"),
        make_review("b1", 5, "’tis fine"),
        make_review("b3", 2, "never counted"),
    ]
    monkeypatch.setattr(sentiment, "tokenize", counting_tokenize)
    docs = build_star_documents(reviews, {"b1", "b2"})
    assert calls == [
        "rude waiter",
        "great pasta the the",
        "great wine café ’tis fine",
        "fine pasta cold pasta",
    ]
    assert docs == reference_star_documents(reviews, {"b1", "b2"})


class TestBuildStarDocuments:
    def test_groups_by_business_and_star(self):
        reviews = [
            make_review("b1", 5, "great pasta"),
            make_review("b1", 5, "great wine"),
            make_review("b1", 1, "bad pasta"),
            make_review("b2", 5, "fine"),
        ]
        docs = build_star_documents(reviews, {"b1", "b2"})
        keys = [(d.business_id, d.stars) for d in docs]
        assert keys == [("b1", 1), ("b1", 5), ("b2", 5)]
        by_key = {(d.business_id, d.stars): d for d in docs}
        assert by_key[("b1", 5)].term_counts == {"great": 2, "pasta": 1, "wine": 1}

    def test_cohort_filter(self):
        reviews = [make_review("outside", 5, "great")]
        assert build_star_documents(reviews, {"b1"}) == []

    def test_all_stopword_reviews_still_make_a_document(self):
        reviews = [make_review("b1", 3, "it was the the")]
        docs = build_star_documents(reviews, {"b1"})
        assert len(docs) == 1
        assert docs[0].term_counts == {}

    def test_output_sorted(self):
        reviews = [
            make_review("zz", 2, "x pasta"),
            make_review("aa", 4, "y pasta"),
            make_review("aa", 1, "z pasta"),
        ]
        docs = build_star_documents(reviews, {"aa", "zz"})
        assert [(d.business_id, d.stars) for d in docs] == [
            ("aa", 1), ("aa", 4), ("zz", 2),
        ]


def test_documents_share_one_string_per_term():
    reviews = [
        make_review("b1", 5, "great pasta great wine"),
        make_review("b1", 5, "pasta again"),
        make_review("b2", 2, "cold pasta, no wine"),
        make_review("b2", 2, "wine list great"),
    ]
    docs = build_star_documents(reviews, {"b1", "b2"})
    oracle = {}
    for r in reviews:
        oracle.setdefault((r.business_id, r.stars), Counter()).update(tokenize(r.text))
    assert {(d.business_id, d.stars): d.term_counts for d in docs} == oracle
    first = {}
    for d in docs:
        for term in d.term_counts:
            assert first.setdefault(term, term) is term, term
    assert {"great", "pasta", "wine"} <= first.keys()
    for term in CorpusStats.from_documents(docs).df:
        assert first[term] is term, term


class TestTfidf:
    def test_hand_computed_weights(self):
        corpus = [
            doc("b1", 1, pasta=2, salad=1),
            doc("b1", 5, pasta=1, wine=3),
            doc("b2", 5, soup=4),
        ]
        # pasta in 2 of 3 docs; count 2 in the first
        assert tfidf("pasta", corpus[0], corpus) == pytest.approx(2 * math.log(3 / 2))
        # wine in 1 of 3 docs; count 3
        assert tfidf("wine", corpus[1], corpus) == pytest.approx(3 * math.log(3))
        # soup absent from doc 0
        assert tfidf("soup", corpus[0], corpus) == 0.0

    def test_term_in_every_document_weighs_zero(self):
        corpus = [doc("b1", 1, pasta=5), doc("b2", 2, pasta=1)]
        assert tfidf("pasta", corpus[0], corpus) == 0.0

    def test_unknown_term_weighs_zero(self):
        corpus = [doc("b1", 1, pasta=1)]
        assert tfidf("ghost", corpus[0], corpus) == 0.0

    def test_stats_agree_with_direct_scan(self):
        corpus = [
            doc("b1", 1, pasta=2, salad=1),
            doc("b1", 5, pasta=1, wine=3),
            doc("b2", 5, soup=4, salad=2),
        ]
        stats = CorpusStats.from_documents(corpus)
        for d in corpus:
            for term in d.term_counts:
                assert stats.tfidf(term, d) == pytest.approx(tfidf(term, d, corpus))

    def test_frozen_stats_ignore_new_documents(self):
        corpus = [doc("b1", 1, pasta=1), doc("b2", 1, salad=1)]
        stats = CorpusStats.from_documents(corpus)
        outside = doc("b9", 5, pasta=2, ghost=7)
        # known term scored against frozen df, unseen term scored zero
        assert stats.tfidf("pasta", outside) == pytest.approx(2 * math.log(2))
        assert stats.tfidf("ghost", outside) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            CorpusStats(n_docs=0, df={})

    @pytest.mark.parametrize("n_docs,df", [
        (3, {"pasta": -3}),
        (3, {"pasta": 0}),
        (3, {"pasta": 6}),
        (3, {"pasta": 1, "wine": 4}),
        (3, {"pasta": 1.0}),
        (3, {"pasta": True}),
        (3, {"pasta": "2"}),
        (3.0, {"pasta": 1}),
        (True, {}),
    ], ids=["negative", "zero", "twice_n_docs", "one_over", "float", "bool", "str",
            "float_n_docs", "bool_n_docs"])
    def test_out_of_range_counts_rejected(self, n_docs, df):
        with pytest.raises(ValueError):
            CorpusStats(n_docs=n_docs, df=df)

    def test_unknown_terms_leave_the_idf_table_unchanged(self):
        stats = CorpusStats(n_docs=3, df={"pasta": 1})
        outside = StarDocument(business_id="b9", stars=1, term_counts={"sushi": 2, "ramen": 1})
        assert stats.tfidf("sushi", outside) == 0.0
        assert top_terms(outside, stats, k=5) == []
        assert len(stats._idf) == 0
        assert stats.tfidf("pasta", doc("b1", 1, pasta=1)) == pytest.approx(math.log(3))
        assert dict(stats._idf) == {"pasta": pytest.approx(math.log(3))}


class TestTopTerms:
    def test_orders_by_weight_then_term(self):
        corpus = [
            doc("b1", 5, zebra=2, apple=2, mango=5),
            doc("b2", 5, other=1),
        ]
        top = top_terms(corpus[0], CorpusStats.from_documents(corpus), k=3)
        assert [t for t, _ in top] == ["mango", "apple", "zebra"]

    def test_k_truncates(self):
        corpus = [doc("b1", 5, **{f"t{i}": i + 1 for i in range(10)}), doc("b2", 5, x=1)]
        assert len(top_terms(corpus[0], CorpusStats.from_documents(corpus), k=4)) == 4

    def test_zero_weight_terms_excluded(self):
        corpus = [doc("b1", 5, everywhere=3, rare=1), doc("b2", 5, everywhere=1)]
        top = top_terms(corpus[0], CorpusStats.from_documents(corpus), k=10)
        assert [t for t, _ in top] == ["rare"]

    def test_k_must_be_positive(self):
        corpus = [doc("b1", 5, pasta=1)]
        with pytest.raises(ValueError):
            top_terms(corpus[0], CorpusStats.from_documents(corpus), k=0)


class TestSentimentLexicon:
    def test_load_counts_and_overwrites(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(
            "good\t2\n"
            "bad\t-2\n"
            "good\t3\n"          # later duplicate wins
            "not good\t1\n"      # multi-word, unusable for single terms
            "oops\n"             # no tab
            "weird\tmany\n"      # non-integer valence
            "huge\t9\n"          # out of range
            "\n",
            encoding="utf-8",
        )
        counters = LexiconCounters()
        lexicon = SentimentLexicon.load(path, counters)
        assert lexicon.valence("good") == 3
        assert lexicon.valence("bad") == -2
        assert len(lexicon) == 2
        assert counters.loaded == 3
        assert counters.skipped_multiword == 1
        assert counters.skipped_malformed == 3

    def test_any_inner_whitespace_is_multiword(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(
            "good\t2\n"
            "not\u00a0good\t-2\n"  # no-break space
            "so\x0bgood\t3\n"      # vertical tab
            "fine\u2003day\t1\n"    # em space
            " bad \t-3\n",          # outer whitespace is stripped
            encoding="utf-8",
        )
        counters = LexiconCounters()
        lexicon = SentimentLexicon.load(path, counters)
        assert dict(lexicon.entries) == {"good": 2, "bad": -3}
        assert counters.as_dict() == {"loaded": 2, "skipped_multiword": 3, "skipped_malformed": 0}

    def test_byte_order_mark_is_not_part_of_the_first_term(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(b"\xef\xbb\xbfgreat\t3\nawful\t-3\n")
        counters = LexiconCounters()
        lexicon = SentimentLexicon.load(path, counters)
        assert dict(lexicon.entries) == {"great": 3, "awful": -3}
        assert counters.loaded == 2

    def test_unknown_term_is_neutral(self):
        lexicon = SentimentLexicon(entries={"good": 2})
        assert lexicon.valence("ghost") == 0

    def test_terms_folded_to_lowercase_on_load(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("GOOD\t2\n", encoding="utf-8")
        assert SentimentLexicon.load(path).valence("good") == 2

    @pytest.mark.parametrize("entries", [
        {"Good": 2},            # not lowercase
        {"two words": 1},       # whitespace
        {"": 1},                # empty
        {"good": 6},            # out of range
        {"good": 2.5},          # not an integer
    ])
    def test_constructor_validation(self, entries):
        with pytest.raises(ValueError):
            SentimentLexicon(entries=entries)


class TestSentimentScore:
    def test_sums_valences(self):
        lexicon = SentimentLexicon(entries={"good": 2, "bad": -3, "fine": 1})
        assert sentiment_score(["good", "bad"], lexicon) == -1

    def test_distinct_terms_counted_once(self):
        lexicon = SentimentLexicon(entries={"good": 2})
        assert sentiment_score(["good", "good", "good"], lexicon) == 2

    def test_unknown_terms_neutral(self):
        lexicon = SentimentLexicon(entries={"good": 2})
        assert sentiment_score(["good", "mystery"], lexicon) == 2

    def test_empty_terms(self):
        assert sentiment_score([], SentimentLexicon(entries={})) == 0


class TestProfilesAndCohorts:
    def _fixture(self):
        reviews = [
            make_review("b1", 5, "amazing wonderful pasta"),
            make_review("b1", 1, "awful horrible pasta"),
            make_review("b2", 5, "amazing soup"),
        ]
        docs = build_star_documents(reviews, {"b1", "b2"})
        stats = CorpusStats.from_documents(docs)
        lexicon = SentimentLexicon(entries={
            "amazing": 4, "wonderful": 4, "awful": -3, "horrible": -3,
        })
        return docs, stats, lexicon

    def test_profiles_carry_topics_and_scores(self):
        docs, stats, lexicon = self._fixture()
        profiles = build_topic_profiles(docs, stats, k=10, lexicon=lexicon)
        by_key = {(p.business_id, p.stars): p for p in profiles}
        assert by_key[("b1", 1)].sentiment_score == -6
        assert by_key[("b1", 5)].sentiment_score == 8
        # pasta appears in two of three documents and still carries weight
        assert "pasta" in [t for t, _ in by_key[("b1", 1)].topics]

    def test_cohort_scores_aggregate_by_star(self):
        docs, stats, lexicon = self._fixture()
        profiles = build_topic_profiles(docs, stats, k=10, lexicon=lexicon)
        scores = cohort_scores(profiles)
        assert scores.combined[1] == -6
        assert scores.combined[5] == 8 + 4
        assert scores.populated_counts == {1: 1, 5: 2}
        assert scores.average[5] == pytest.approx(6.0)

    def test_stars_without_profiles_omitted(self):
        docs, stats, lexicon = self._fixture()
        profiles = build_topic_profiles(docs, stats, k=10, lexicon=lexicon)
        scores = cohort_scores(profiles)
        assert set(scores.combined) == {1, 5}
        assert 3 not in scores.average


def reference_top_terms(doc, stats, k):
    """``top_terms`` before its tuple sort: per-term weights, a keyed sort."""
    def weight(term, count):
        if count <= 0:
            return 0.0
        df = stats.df.get(term, 0)
        if df == 0:
            return 0.0
        return count * math.log(stats.n_docs / df)

    weighted = [(term, weight(term, count)) for term, count in doc.term_counts.items()]
    positive = [(term, w) for term, w in weighted if w > 0.0]
    positive.sort(key=lambda tw: (-tw[1], tw[0]))
    return positive[:k]


@st.composite
def tied_corpora(draw):
    """Few terms, few count values and few documents, so many weights tie;
    counts include 0 and negatives. The scored document is one of the corpus
    or one outside it, whose terms may have no df."""
    vocab = [f"t{i}" for i in range(draw(st.integers(1, 12)))]
    counts = st.dictionaries(st.sampled_from(vocab), st.integers(min_value=-2, max_value=3),
                             max_size=len(vocab))
    documents = [
        StarDocument(business_id=f"b{i}", stars=1, term_counts=draw(counts))
        for i in range(draw(st.integers(1, 4)))
    ]
    outside = StarDocument(business_id="b9", stars=1, term_counts=draw(counts))
    return documents, draw(st.sampled_from(documents + [outside]))


def _scored(*term_counts):
    """A tied_corpora value: documents with these counts, scoring the first."""
    documents = [StarDocument(business_id=f"b{i}", stars=1, term_counts=counts)
                 for i, counts in enumerate(term_counts)]
    return documents, documents[0]


# Ties straddling the k-th weight: t1..t3 tie at ln 2 behind t0 at 2 ln 2.
@example(_scored({"t0": 2, "t3": 1, "t2": 1, "t1": 1}, {}), 2)
@example(_scored({"t0": 2, "t3": 1, "t2": 1, "t1": 1}, {}), 3)
# As many terms as k, and one more than k.
@example(_scored({"t2": 1, "t0": 3, "t1": 2}, {"t2": 1}), 3)
@example(_scored({"t2": 1, "t0": 3, "t1": 2, "t3": 1}, {"t2": 1}), 3)
# More terms than k, fewer positive weights than k: t2 and t3 are in every
# document, t4 counts 0, and t5's count is negative against a positive idf.
@example(_scored({"t0": 1, "t1": 2, "t2": 1, "t3": 3, "t4": 0, "t5": -1},
                 {"t2": 1, "t3": 1, "t5": 1}, {"t2": 1, "t3": 1}), 4)
@given(tied_corpora(), st.integers(min_value=1, max_value=14))
@settings(max_examples=200, deadline=None)
def test_top_terms_matches_keyed_sort_reference(corpus, k):
    documents, target = corpus
    stats = CorpusStats.from_documents(documents)
    expected = reference_top_terms(target, stats, k)
    assert top_terms(target, stats, k) == expected
    # the same stats again, now with every idf it needs already computed
    assert top_terms(target, stats, k) == expected


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(min_value=1, max_value=5))
    vocab = [f"term{i:02d}" for i in range(draw(st.integers(1, 30)))]
    documents = []
    for i in range(n_docs):
        counts = draw(
            st.dictionaries(
                st.sampled_from(vocab), st.integers(min_value=1, max_value=9),
                max_size=len(vocab),
            )
        )
        documents.append(StarDocument(business_id=f"b{i}", stars=1 + i % 5,
                                      term_counts=counts))
    return documents


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_tfidf_matches_brute_force_oracle(documents):
    stats = CorpusStats.from_documents(documents)
    for d in documents:
        for term, count in d.term_counts.items():
            df = sum(1 for other in documents if other.term_counts.get(term, 0) > 0)
            expected = 0.0 if df == 0 else count * math.log(len(documents) / df)
            assert stats.tfidf(term, d) == pytest.approx(expected, abs=1e-12)


@given(
    st.lists(st.sampled_from([f"w{i}" for i in range(30)]), max_size=40),
    st.dictionaries(
        st.sampled_from([f"w{i}" for i in range(30)]),
        st.integers(min_value=-5, max_value=5),
        max_size=30,
    ),
)
@settings(max_examples=80, deadline=None)
def test_sentiment_score_matches_set_sum_oracle(terms, entries):
    lexicon = SentimentLexicon(entries=entries)
    expected = sum(entries.get(t, 0) for t in set(terms))
    assert sentiment_score(terms, lexicon) == expected


# Lexicon text: raw runs of these characters, term TAB valence lines, and
# every line break that str.splitlines knows, of which a text-mode file
# breaks only at "\n", "\r" and "\r\n".
_LEXICON_CHARS = string.ascii_letters + string.digits + "- \t\n\r\x0b\x85\u2028"
lexicon_texts = st.lists(
    st.one_of(
        st.text(_LEXICON_CHARS, max_size=12),
        st.builds("{}\t{}".format, st.text(_LEXICON_CHARS, min_size=1, max_size=8),
                  st.integers(min_value=-7, max_value=7)),
        st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x85", "\u2028"]),
    ),
    max_size=12,
).map("".join)


@given(lexicon_texts)
@example("good\t2\x85bad\t-3")  # one malformed line, not two entries
@settings(max_examples=200, deadline=None)
def test_loads_agrees_with_load(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.txt"
        path.write_bytes(text.encode())
        from_text, from_file = LexiconCounters(), LexiconCounters()
        lexicon = SentimentLexicon.loads(text, from_text)
        assert SentimentLexicon.load(path, from_file) == lexicon
        assert from_file == from_text
        # Each line that is not blank, as a text-mode file yields them, is
        # counted once: loaded or skipped.
        with open(path, encoding="utf-8") as handle:
            lines = sum(1 for line in handle if line.strip())
        assert from_text.loaded + from_text.skipped_multiword + from_text.skipped_malformed == lines
        workspace = Workspace(tmp)
        workspace.write_lexicon(lexicon)
        written = workspace.lexicon_path.read_bytes().decode("utf-8")
        assert SentimentLexicon.loads(written) == lexicon
