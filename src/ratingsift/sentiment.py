"""Per-star TF-IDF topic extraction and valence-lexicon sentiment scoring.

The document unit is a star document: all of one business's review text at
one star level, tokenized and counted. TF-IDF is the traditional form, raw
term count times ln(N / df) over the cohort's documents. A document's top-k
terms are its topics; summing the lexicon valences of the distinct topic
terms gives the document's sentiment score.
"""

import io
import math
import re
from collections import Counter
from itertools import compress, filterfalse, repeat
from operator import ge, itemgetter, mul, neg
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ingest import ReviewRecord, _Counters
from .stopwords import STOPWORDS

# re's \w is str.isalnum() plus "_", so once tokenize has turned "_" into a
# space, the maximal runs of \w are the maximal runs of alphanumerics, and
# {2,} drops the one-character runs.
_TOKEN_RE = re.compile(r"\w{2,}")

# In ASCII text the alphanumerics are [A-Za-z0-9], and once it is lowercased
# [a-z0-9]: mapping every other ASCII character to a space lets split() find
# the maximal runs, and one set drops both the one-character runs and the
# stopwords.
_ASCII_GAPS = {c: " " for c in range(128) if not chr(c).isalnum()}
_ASCII_DROP = STOPWORDS | set("abcdefghijklmnopqrstuvwxyz0123456789")


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``str.isalnum()`` characters in the lowercased
    text, in order, except runs shorter than two characters and stopwords."""
    text = text.lower()
    # Tested after lowercasing: the Kelvin sign lowers to ASCII "k", and "İ"
    # to "i" plus a combining dot, which is not ASCII.
    if text.isascii():
        return list(filterfalse(_ASCII_DROP.__contains__, text.translate(_ASCII_GAPS).split()))
    runs = _TOKEN_RE.findall(text.replace("_", " "))
    return list(filterfalse(STOPWORDS.__contains__, runs))


class StarDocument(NamedTuple):
    """Aggregated term counts for one (business, star) pair."""

    business_id: str
    stars: int
    term_counts: Mapping[str, int]


def build_star_documents(
    reviews: Iterable[ReviewRecord],
    cohort_ids: Iterable[str],
) -> list[StarDocument]:
    """One document per (business, star) pair with at least one review.

    Only businesses in ``cohort_ids`` contribute. A pair whose reviews
    tokenize to nothing still yields a document (with empty counts); it has
    reviews, they just carry no scoreable terms. Output is sorted by
    (business_id, stars) so the corpus is reproducible.

    Each document's ASCII review texts are joined with spaces and tokenized
    in one call, and its other texts in a second, so one non-ASCII review
    does not send the rest through ``tokenize``'s regular expression. A
    joined text gives the terms of tokenizing each text alone: no term
    spans a space, lowercasing's one context rule (final sigma) stops at a
    space, the joined text is ASCII exactly when every text is, and both of
    ``tokenize``'s paths give the same terms. So reviews in any order give
    the same documents.

    Every document holds one string per distinct term, shared with the
    other documents, so a corpus costs its vocabulary once rather than once
    per document. No document refers to a review, and no review is kept
    past its own step. So when ``reviews`` is a one-shot iterator holding
    the only reference to each review, a review is freed once its text is
    gathered, and the text once its document is tokenized.
    """
    cohort = set(cohort_ids)
    # Maps each term to its first string. Call-scoped, not sys.intern: an
    # interned string is immortal on CPython 3.12, so a long-lived caller
    # would keep every term it ever saw.
    vocabulary: dict[str, str] = {}
    shared = vocabulary.setdefault
    # (business_id, stars) -> (the ASCII texts, the other texts)
    texts: dict[tuple[str, int], tuple[list[str], list[str]]] = {}
    for business_id, stars, text in reviews:
        if business_id in cohort:
            key = (business_id, stars)
            parts = texts.get(key)
            if parts is None:
                parts = texts[key] = ([], [])
            parts[not text.isascii()].append(text)
    documents = []
    for key in sorted(texts):
        counts: Counter = Counter()
        # Popping frees each document's lists once its texts are counted.
        for part in texts.pop(key):
            if part:
                tokens = tokenize(" ".join(part))
                counts.update(map(shared, tokens, tokens))
        documents.append(StarDocument(*key, term_counts=dict(counts)))
    return documents


class _Idf(dict):
    """term -> ln(N / df), computed and kept on first lookup; 0.0 for a term
    with no df, which is not kept.

    Lazy, because compare loads the df of the whole cohort to score two
    businesses' documents.
    """

    __slots__ = ("n_docs", "df")

    def __init__(self, n_docs: int, df: Mapping[str, int]):
        self.n_docs = n_docs
        self.df = df

    def __missing__(self, term: str) -> float:
        df = self.df.get(term)
        if df is None:
            # Not stored, so terms from outside the corpus never grow the table.
            return 0.0
        idf = self[term] = math.log(self.n_docs / df)
        return idf


class CorpusStats:
    """Frozen document frequencies for a corpus of star documents.

    Computed once, then shared read-only: every scoring path (cohort tables,
    pairwise comparisons, documents outside the corpus) uses the same N and
    df so results stay reproducible. A term the corpus has never seen gets
    weight zero rather than an unbounded idf. Every df lies in 1..N, so no
    idf is negative.
    """

    def __init__(self, n_docs: int, df: Mapping[str, int]):
        if type(n_docs) is not int or n_docs < 1:
            raise ValueError("a corpus needs an integer count of at least one document")
        self.df = dict(df)
        counts = self.df.values()
        if counts and (
            set(map(type, counts)) != {int} or min(counts) < 1 or max(counts) > n_docs
        ):
            raise ValueError(f"every document frequency must be an integer in 1..{n_docs}")
        self.n_docs = n_docs
        self._idf = _Idf(n_docs, self.df)

    @classmethod
    def from_documents(cls, documents: Sequence[StarDocument]) -> "CorpusStats":
        df: Counter = Counter()
        for doc in documents:
            df.update([term for term, count in doc.term_counts.items() if count > 0])
        return cls(n_docs=len(documents), df=df)

    def tfidf(self, term: str, doc: StarDocument) -> float:
        """Raw count of ``term`` in ``doc`` times its idf; 0.0 when absent."""
        count = doc.term_counts.get(term, 0)
        if count <= 0:
            return 0.0
        return count * self._idf[term]


def tfidf(term: str, doc: StarDocument, corpus: Sequence[StarDocument]) -> float:
    """Traditional TF-IDF by direct scan: raw count times ln(N / df).

    Zero when the term is absent from ``doc`` or present in every corpus
    document. For bulk scoring build a CorpusStats instead of rescanning.
    """
    count = doc.term_counts.get(term, 0)
    if count <= 0:
        return 0.0
    df = sum(1 for d in corpus if d.term_counts.get(term, 0) > 0)
    if df == 0:
        return 0.0
    return count * math.log(len(corpus) / df)


def top_terms(doc: StarDocument, stats: CorpusStats, k: int) -> list[tuple[str, float]]:
    """The k highest-TF-IDF terms of ``doc`` under ``stats``, zero weights
    excluded.

    Weights are those of ``stats.tfidf``; build ``stats`` once with
    ``CorpusStats.from_documents`` and share it across documents. Order is
    weight descending with alphabetical tie-breaks, so the result is
    deterministic.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    counts = doc.term_counts
    weights = list(map(mul, counts.values(), map(stats._idf.__getitem__, counts)))
    # Plain tuples sort by negated weight, then term, with no key function.
    if len(weights) > k:
        # Only terms at or above the k-th largest weight can be kept, so only
        # theirs are negated and paired. Ties at it are all sorted, so the
        # alphabetical tie-break is unchanged.
        cut = sorted(weights, reverse=True)[k - 1]
        kept = list(map(ge, weights, repeat(cut)))
        ranked = zip(map(neg, compress(weights, kept)), compress(counts, kept))
    else:
        ranked = zip(map(neg, weights), counts)
    # No idf is negative, so a count <= 0 weighs <= 0 and is dropped here.
    return [(term, -minus_w) for minus_w, term in sorted(ranked)[:k] if minus_w < 0.0]


class LexiconCounters(_Counters):
    __slots__ = ("loaded", "skipped_multiword", "skipped_malformed")


class SentimentLexicon:
    """Term -> integer valence in [-5, 5], terms lowercase; validated at
    construction and read-only."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, int]):
        for term, valence in entries.items():
            if not term or term != term.lower() or any(c.isspace() for c in term):
                raise ValueError(f"bad lexicon term {term!r}: lowercase single words only")
            if not isinstance(valence, int) or isinstance(valence, bool) or not -5 <= valence <= 5:
                raise ValueError(f"valence for {term!r} must be an integer in [-5, 5]")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SentimentLexicon is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"SentimentLexicon(entries={self.entries!r})"

    def __reduce__(self):
        # Rebuilt through __init__, so copy and pickle never set a slot.
        return type(self), (self.entries,)

    def valence(self, term: str) -> int:
        return self.entries.get(term, 0)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path, counters: LexiconCounters | None = None) -> "SentimentLexicon":
        """Read a term TAB valence file (UTF-8); see ``loads``."""
        # utf-8-sig: a byte-order mark would otherwise stick to the first term
        with open(path, "r", encoding="utf-8-sig") as handle:
            return cls.loads(handle.read(), counters)

    @classmethod
    def loads(cls, text: str, counters: LexiconCounters | None = None) -> "SentimentLexicon":
        """Parse term TAB valence lines, broken only where a text-mode file
        breaks them: at "\\n", "\\r" and "\\r\\n".

        Multi-word entries cannot match single-term topics and are skipped
        with a counted warning; malformed lines are skipped and counted.
        Later duplicates of a term overwrite earlier ones.
        """
        if counters is None:
            counters = LexiconCounters()
        entries: dict[str, int] = {}
        # Not str.splitlines, which also breaks at "\x85", "\u2028" and others.
        for line in io.StringIO(text, newline=None):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                counters.skipped_malformed += 1
                continue
            term, raw_valence = parts[0].strip().lower(), parts[1].strip()
            try:
                valence = int(raw_valence)
            except ValueError:
                counters.skipped_malformed += 1
                continue
            if not -5 <= valence <= 5:
                counters.skipped_malformed += 1
                continue
            if not term or any(c.isspace() for c in term):
                counters.skipped_multiword += 1
                continue
            entries[term] = valence
            counters.loaded += 1
        return cls(entries=entries)


def sentiment_score(terms: Iterable[str], lexicon: SentimentLexicon) -> int:
    """Sum of lexicon valences over the distinct terms; unknown terms add 0."""
    return sum(map(lexicon.entries.get, set(terms), repeat(0)))


class TopicProfile(NamedTuple):
    """Top-k topics and their sentiment score for one (business, star) pair."""

    business_id: str
    stars: int
    topics: tuple[tuple[str, float], ...]
    sentiment_score: int


def build_topic_profiles(
    documents: Sequence[StarDocument],
    stats: CorpusStats,
    k: int,
    lexicon: SentimentLexicon,
) -> list[TopicProfile]:
    """Score every document against frozen corpus statistics."""
    profiles = []
    for doc in documents:
        topics = top_terms(doc, stats, k)
        score = sentiment_score(map(itemgetter(0), topics), lexicon)
        profiles.append(
            TopicProfile(
                business_id=doc.business_id,
                stars=doc.stars,
                topics=tuple(topics),
                sentiment_score=score,
            )
        )
    return profiles


class CohortScores(NamedTuple):
    """Combined and average sentiment per star level over one cohort.

    ``populated_counts[s]`` is the number of (business, star) profiles at
    star s; stars with no profiles are omitted from all three maps.
    """

    combined: dict[int, int]
    average: dict[int, float]
    populated_counts: dict[int, int]


def cohort_scores(profiles: Iterable[TopicProfile]) -> CohortScores:
    """Aggregate per-star sentiment over a cohort's topic profiles."""
    combined: dict[int, int] = {}
    populated: dict[int, int] = {}
    for profile in profiles:
        combined[profile.stars] = combined.get(profile.stars, 0) + profile.sentiment_score
        populated[profile.stars] = populated.get(profile.stars, 0) + 1
    stars = sorted(combined)
    return CohortScores(
        combined={s: combined[s] for s in stars},
        average={s: combined[s] / populated[s] for s in stars},
        populated_counts={s: populated[s] for s in stars},
    )
