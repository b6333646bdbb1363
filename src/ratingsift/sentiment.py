"""Per-star TF-IDF topic extraction and valence-lexicon sentiment scoring.

The document unit is a star document: all of one business's review text at
one star level, tokenized and counted. TF-IDF is the traditional form, raw
term count times ln(N / df) over the cohort's documents. A document's top-k
terms are its topics; summing the lexicon valences of the distinct topic
terms gives the document's sentiment score.
"""

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass
from operator import mul, neg
from typing import Iterable, Mapping, Sequence

from .ingest import ReviewRecord
from .stopwords import STOPWORDS

_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on any non-alphanumeric character, drop tokens
    shorter than two characters and stopwords."""
    return [
        token
        for token in _TOKEN_RE.findall(text.lower())
        if len(token) >= 2 and token not in STOPWORDS
    ]


@dataclass(frozen=True)
class StarDocument:
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
    """
    cohort = set(cohort_ids)
    buckets: dict[tuple[str, int], Counter] = {}
    for review in reviews:
        if review.business_id not in cohort:
            continue
        key = (review.business_id, review.stars)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = Counter()
        bucket.update(tokenize(review.text))
    # Popping frees each Counter as soon as its copy is made.
    return [
        StarDocument(business_id=bid, stars=stars, term_counts=dict(buckets.pop((bid, stars))))
        for bid, stars in sorted(buckets)
    ]


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

    def weight(self, term: str, count: int) -> float:
        if count <= 0:
            return 0.0
        return count * self._idf[term]

    def tfidf(self, term: str, doc: StarDocument) -> float:
        return self.weight(term, doc.term_counts.get(term, 0))


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


def top_terms(
    doc: StarDocument,
    corpus,
    k: int,
) -> list[tuple[str, float]]:
    """The k highest-TF-IDF terms of ``doc``, zero weights excluded.

    ``corpus`` may be a sequence of documents or a prebuilt CorpusStats.
    Order is weight descending with alphabetical tie-breaks, so the result
    is deterministic.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    stats = corpus if isinstance(corpus, CorpusStats) else CorpusStats.from_documents(corpus)
    counts = doc.term_counts
    negated = map(neg, map(mul, counts.values(), map(stats._idf.__getitem__, counts)))
    # Plain tuples sort by negated weight, then term, with no key function.
    # No idf is negative, so a count <= 0 weighs <= 0 and is dropped here.
    ranked = sorted(zip(negated, counts))[:k]
    return [(term, -minus_w) for minus_w, term in ranked if minus_w < 0.0]


@dataclass
class LexiconCounters:
    loaded: int = 0
    skipped_multiword: int = 0
    skipped_malformed: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SentimentLexicon:
    """Term -> integer valence in [-5, 5], terms lowercase."""

    entries: Mapping[str, int]

    def __post_init__(self):
        for term, valence in self.entries.items():
            if not term or term != term.lower() or any(c.isspace() for c in term):
                raise ValueError(f"bad lexicon term {term!r}: lowercase single words only")
            if not isinstance(valence, int) or isinstance(valence, bool) or not -5 <= valence <= 5:
                raise ValueError(f"valence for {term!r} must be an integer in [-5, 5]")

    def valence(self, term: str) -> int:
        return self.entries.get(term, 0)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path, counters: LexiconCounters | None = None) -> "SentimentLexicon":
        """Read a term TAB valence file (one entry per line, UTF-8).

        Multi-word entries cannot match single-term topics and are skipped
        with a counted warning; malformed lines are skipped and counted.
        Later duplicates of a term overwrite earlier ones.
        """
        if counters is None:
            counters = LexiconCounters()
        entries: dict[str, int] = {}
        # utf-8-sig: a byte-order mark would otherwise stick to the first term
        with open(path, "r", encoding="utf-8-sig") as handle:
            for line in handle:
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
    return sum(map(lexicon.valence, set(terms)))


@dataclass(frozen=True)
class TopicProfile:
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
        score = sentiment_score((term for term, _ in topics), lexicon)
        profiles.append(
            TopicProfile(
                business_id=doc.business_id,
                stars=doc.stars,
                topics=tuple(topics),
                sentiment_score=score,
            )
        )
    return profiles


@dataclass(frozen=True)
class CohortScores:
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
