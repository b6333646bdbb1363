"""Workspace artifacts, staleness tracking, and deterministic writers."""

import csv
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratingsift import (
    CorpusStats,
    DEFAULT_TAXONOMY,
    FeatureTaxonomy,
    StaleWorkspaceError,
    Workspace,
    WorkspaceLockedError,
)
from ratingsift import workspace as workspace_module
from ratingsift.ingest import VALID_BUSINESS_STARS, BusinessRecord, ReviewRecord
from ratingsift.sentiment import CohortScores, SentimentLexicon, TopicProfile
from ratingsift.taxonomy import RankEntry
from ratingsift.workspace import STAGES

from conftest import make_business, make_review


# Path properties of the artifacts each stage writes, in pipeline order.
STAGE_ARTIFACTS = [
    ("ingest", ("businesses_path", "reviews_path", "review_index_path")),
    ("rank", ("taxonomy_path", "ranked_path", "frequency_path")),
    ("score", ("topics_path", "cohort_scores_path", "corpus_stats_path", "lexicon_path")),
]

# A manifest entry of each stage, as the commands pass it to record_stage,
# which adds the digests of the stage's files.
ENTRIES = {
    "ingest": {"businesses": {"parsed": 2}, "reviews": {"parsed": 5}},
    "rank": {"cutoff": 0, "kept": 2},
    "score": {"documents": 3, "k": 10},
}


def write_artifact(ws, name, text=""):
    """Write ``text`` to the artifact ``name`` through the workspace's writer,
    which takes the digest record_stage claims."""
    with workspace_module._create(ws.root / name, ws._digests) as handle:
        handle.write(text)


def record_through(ws, last):
    """Record every stage up to ``last``, first writing, empty, each of their
    files that ``ws`` has not yet written."""
    for stage in list(STAGES)[:list(STAGES).index(last) + 1]:
        for name in STAGES[stage]:
            if name not in ws._digests:
                write_artifact(ws, name)
        ws.record_stage(stage, ENTRIES[stage])


@pytest.fixture
def ws(tmp_path):
    workspace = Workspace(tmp_path / "ws")
    workspace.root.mkdir()
    return workspace


class TestLock:
    def test_lock_excludes_second_holder(self, ws):
        with ws.lock():
            with pytest.raises(WorkspaceLockedError):
                with ws.lock():
                    pass

    def test_shared_holders_exclude_only_an_exclusive_one(self, ws):
        # Each lock() opens the directory anew, so flock sets the holders
        # apart within one process too.
        with ws.lock(shared=True), ws.lock(shared=True):
            with pytest.raises(WorkspaceLockedError):
                with ws.lock():
                    pass
        with ws.lock():
            with pytest.raises(WorkspaceLockedError):
                with ws.lock(shared=True):
                    pass
        with ws.lock(shared=True):
            pass

    def test_lock_released_on_exception(self, ws):
        with pytest.raises(RuntimeError):
            with ws.lock():
                raise RuntimeError("boom")
        with ws.lock():
            pass

    def test_locked_error_is_stale_error(self):
        assert issubclass(WorkspaceLockedError, StaleWorkspaceError)


class TestStages:
    def test_require_stage_missing(self, ws):
        with pytest.raises(StaleWorkspaceError):
            ws.require_stage("ingest")

    def test_record_then_require(self, ws):
        for name in STAGES["ingest"]:
            write_artifact(ws, name, "x")
        ws.begin_stage("ingest")
        ws.record_stage("ingest", ENTRIES["ingest"])
        files = dict.fromkeys(STAGES["ingest"], hashlib.sha256(b"x").hexdigest())
        assert ws.require_stage("ingest") == {"ingest": {**ENTRIES["ingest"], "files": files}}

    @pytest.mark.parametrize("reader,name,stage", [
        ("read_businesses", "businesses.jsonl", "ingest"),
        ("read_reviews", "reviews.jsonl", "ingest"),
        ("read_taxonomy", "taxonomy.cfg", "rank"),
        ("read_ranked", "ranked.csv", "rank"),
        ("read_corpus_stats", "corpus_stats.json", "score"),
        ("read_lexicon", "lexicon.tsv", "score"),
    ])
    def test_reading_missing_artifact(self, ws, reader, name, stage):
        # Files are checked where they are read: require_stage looks only at
        # the manifest, and the reader names the file and the stage to re-run.
        record_through(ws, "score")
        (ws.root / name).unlink()
        assert ws.require_stage("score")
        with pytest.raises(StaleWorkspaceError, match=f"missing {name}; re-run {stage}$"):
            getattr(ws, reader)()

    def test_recording_early_stage_clears_later_ones(self, ws):
        record_through(ws, "score")
        ingest = ws.load_manifest()["stages"]["ingest"]
        ws.begin_stage("rank")
        assert ws.load_manifest() == {"stages": {"ingest": ingest}}
        ws.begin_stage("ingest")
        assert ws.load_manifest() == {"stages": {}}

    def test_beginning_ingest_replaces_damaged_manifest(self, ws):
        ws.manifest_path.write_text('{"stages": {"rank": {}}}', encoding="utf-8")
        with pytest.raises(StaleWorkspaceError, match="manifest.json"):
            ws.load_manifest()
        ws.begin_stage("ingest")
        assert ws.load_manifest() == {"stages": {}}

    def test_recording_clears_downstream_artifacts(self, ws):
        ws.write_ranked([RankEntry("b1", 2, 1.4)])
        ws.write_corpus_stats(CorpusStats(n_docs=1, df={"pasta": 1}))
        ws.begin_stage("ingest")
        assert not ws.ranked_path.exists()
        assert not ws.corpus_stats_path.exists()

    def test_rank_rerun_clears_score_artifacts_only(self, ws):
        ws.write_businesses([make_business("b1", {"wifi"})])
        ws.write_corpus_stats(CorpusStats(n_docs=1, df={}))
        ws.begin_stage("rank")
        assert ws.businesses_path.exists()
        assert not ws.corpus_stats_path.exists()

    @pytest.mark.parametrize("stage", [stage for stage, _ in STAGE_ARTIFACTS])
    def test_recording_deletes_only_later_stages_artifacts(self, ws, stage):
        for _, paths in STAGE_ARTIFACTS:
            for path in paths:
                getattr(ws, path).write_text("x", encoding="utf-8")
        ws.begin_stage(stage)
        position = [name for name, _ in STAGE_ARTIFACTS].index(stage)
        for index, (_, paths) in enumerate(STAGE_ARTIFACTS):
            for path in paths:
                assert getattr(ws, path).exists() == (index <= position), path
        assert ws.manifest_path.exists()


class _Interrupting:
    """Stands in for ``workspace._create``: raises KeyboardInterrupt at point
    ``at`` of writing the manifest, counting each write call and, once the
    body has written everything, the cut to length. Other files pass through."""

    def __init__(self, at):
        self.at, self.points = at, 0
        self.create = workspace_module._create  # the real one, before it is patched

    def _point(self):
        if self.points == self.at:
            raise KeyboardInterrupt
        self.points += 1

    @contextmanager
    def __call__(self, path, digests):
        with self.create(path, digests) as handle:
            if path.name != "manifest.json":
                yield handle
                return
            self.handle = handle
            yield self
            self._point()

    def write(self, text):
        self._point()
        return self.handle.write(text)


@pytest.mark.parametrize("rewrite", [
    lambda ws: ws.record_stage("ingest", {"businesses": {"parsed": 3},
                                          "reviews": {"parsed": 6}}),
    lambda ws: ws.begin_stage("rank"),
], ids=["record_changed_counts", "begin_rank"])
def test_interrupted_manifest_rewrite_never_mixes(tmp_path, monkeypatch, rewrite):
    # Interrupted at any point, the manifest holds its earlier bytes, the new
    # ones, or the new ones followed by an old tail that fails to parse, and
    # so exits 2; never old and new bytes mixed into JSON that parses.
    reference = Workspace(tmp_path / "reference")
    reference.root.mkdir()
    record_through(reference, "score")
    rewrite(reference)
    new = reference.load_manifest()
    at = 0
    while True:
        ws = Workspace(tmp_path / f"ws{at}")
        ws.root.mkdir()
        record_through(ws, "score")
        old = ws.manifest_path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(workspace_module, "_create", _Interrupting(at))
            try:
                rewrite(ws)
            except KeyboardInterrupt:
                pass
            else:
                break
        data = ws.manifest_path.read_bytes()
        try:
            parsed = json.loads(data)
        except ValueError:
            with pytest.raises(StaleWorkspaceError, match="manifest.json is damaged"):
                ws.load_manifest()
        else:
            assert data == old or parsed == new, at
        at += 1
    assert at >= 2  # the write and the cut to length


# Each writer, the files it writes, and its input built from a list of
# distinct words. No words gives its smallest output (empty where it can be);
# thousands give many 8 KiB buffers.
DIGEST_WRITERS = [
    ("write_businesses", ["businesses.jsonl"],
     lambda words: [make_business(word, {word}) for word in words]),
    ("write_reviews", ["reviews.jsonl", "reviews.idx"],
     lambda words: [make_review(word, 1 + i % 5, word) for i, word in enumerate(words)]),
    ("write_taxonomy", ["taxonomy.cfg"],
     lambda words: FeatureTaxonomy(
         {f"c{i}": frozenset({word}) for i, word in enumerate(words)} or {"c": {"a"}},
         {f"c{i}": 0.5 for i in range(len(words))} or {"c": 0.5})),
    ("write_ranked", ["ranked.csv"],
     lambda words: [RankEntry(word, i, i / 8) for i, word in enumerate(words)]),
    ("write_frequency", ["feature_frequency.csv"],
     lambda words: {word: i for i, word in enumerate(words)}),
    ("write_topics", ["topics.tsv"],
     lambda words: [TopicProfile(word, 1 + i % 5, ((word, 0.5), (f"x{word}", 0.25)), 0)
                    for i, word in enumerate(words)]),
    ("write_cohort_scores", ["cohort_scores.csv"],
     lambda words: CohortScores(combined={i: -i for i in range(len(words))},
                                average={i: i / 3 for i in range(len(words))},
                                populated_counts={i: i for i in range(len(words))})),
    ("write_corpus_stats", ["corpus_stats.json"],
     lambda words: CorpusStats(n_docs=max(1, len(words)), df=dict.fromkeys(words, 1))),
    ("write_lexicon", ["lexicon.tsv"],
     lambda words: SentimentLexicon({word: i % 11 - 5 for i, word in enumerate(words)})),
]


def _assert_recorded_digests(writer, names, build, words, count):
    """Write ``words`` through ``writer``, then its first ``count`` over them
    in place, and record the stage: the manifest's digest of each file is
    that of the bytes the file holds, and a fresh Workspace reads it."""
    stage = workspace_module._WRITER[names[0]]
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        getattr(ws, writer)(build(words))
        longer = {name: (ws.root / name).stat().st_size for name in names}
        getattr(ws, writer)(build(words[:count]))
        record_through(ws, stage)
        files = ws.load_manifest()["stages"][stage]["files"]
        fresh = Workspace(root)
        for name in names:
            data = (ws.root / name).read_bytes()
            assert len(data) < longer[name]
            assert files[name] == hashlib.sha256(data).hexdigest()
            with fresh._reading(ws.root / name) as (handle, digest):
                digest.update(handle.read())


@pytest.mark.parametrize("writer,names,build", DIGEST_WRITERS,
                         ids=[writer for writer, _, _ in DIGEST_WRITERS])
@given(
    # 1- to 4-byte UTF-8 characters: where a writer writes words raw (not
    # JSON-escaped), some fall across the file's 8 KiB offsets
    word=st.text(alphabet='a"\u00e9\u20ac\U0001f600', min_size=1, max_size=6),
    count=st.one_of(st.integers(0, 12), st.integers(1500, 3000)),
    cut=st.integers(1, 400),
)
@example(word="a", count=0, cut=1)
@example(word="\u00e9\u20ac\U0001f600", count=3000, cut=400)
@settings(max_examples=20, deadline=None)
def test_recorded_digest_is_the_written_files_digest(writer, names, build, word, count, cut):
    # The cut to length drops the longer file's tail.
    _assert_recorded_digests(writer, names, build, [f"{word}{i}" for i in range(count + cut)],
                             count)


class _CappedFileIO(io.FileIO):
    """A raw file that writes at most three bytes per call, as a write cut
    short by a signal or a filling disk does."""

    def write(self, data):
        return super().write(memoryview(data)[:3])


class _ShortHashingFile(workspace_module._HashingFile, _CappedFileIO):
    """The artifact writer's raw file over short writes: its ``write`` hashes
    what ``_CappedFileIO`` took of each buffer."""


@pytest.mark.parametrize("writer,names,build", DIGEST_WRITERS,
                         ids=[writer for writer, _, _ in DIGEST_WRITERS])
def test_recorded_digest_survives_short_writes(monkeypatch, writer, names, build):
    # The buffered layer writes the rest of each buffer again, so the digest
    # must take only the bytes each call wrote; 4-byte characters straddle
    # the calls.
    monkeypatch.setattr(workspace_module, "_HashingFile", _ShortHashingFile)
    words = [f"\u00e9\U0001f600{i}" for i in range(40)]
    _assert_recorded_digests(writer, names, build, words, 30)


class TestTaxonomyHash:
    @pytest.fixture(autouse=True)
    def record_rank(self, ws):
        ws.write_taxonomy(DEFAULT_TAXONOMY)
        record_through(ws, "rank")

    def test_matching_hash_passes(self, ws):
        loaded = ws.read_taxonomy()
        assert isinstance(loaded, FeatureTaxonomy)
        assert loaded.dumps() == DEFAULT_TAXONOMY.dumps()

    def test_edited_file_detected(self, ws):
        text = ws.taxonomy_path.read_text(encoding="utf-8")
        ws.taxonomy_path.write_text(
            text.replace("weight = 0.700000", "weight = 0.710000"),
            encoding="utf-8",
        )
        with pytest.raises(StaleWorkspaceError, match="taxonomy.cfg changed since rank"):
            ws.read_taxonomy()

    def test_missing_file_detected(self, ws):
        ws.taxonomy_path.unlink()
        with pytest.raises(StaleWorkspaceError, match="taxonomy.cfg"):
            ws.read_taxonomy()


def record_ingest(ws, businesses=(), reviews=()):
    """Write ingest's files and record its entry, which holds their digests."""
    ws.write_businesses(businesses)
    ws.write_reviews(reviews)
    ws.record_stage("ingest", ENTRIES["ingest"])


class TestRoundTrips:
    def test_businesses(self, ws):
        records = [make_business("b1", {"wifi", "dinner"}), make_business("b2", set())]
        record_ingest(ws, businesses=records)
        assert ws.read_businesses() == {record.business_id: record for record in records}
        first = ws.businesses_path.read_text(encoding="utf-8").splitlines()[0]
        assert first == '{"business_id":"b1","features":["dinner","wifi"],"overall_stars":3.5}'

    def test_reviews(self, ws):
        reviews = [make_review("b1", 4, "nice"), make_review("b1", 1, "bad")]
        record_ingest(ws, reviews=reviews)
        assert ws.read_reviews() == reviews
        first = ws.reviews_path.read_text(encoding="utf-8").splitlines()[0]
        assert first == '{"business_id":"b1","stars":4,"text":"nice"}'

    def test_record_file_edited_after_ingest(self, ws):
        record_ingest(ws, reviews=[make_review("b1", 4, "nice"),
                                   make_review("b2", 1, "bad")])
        ws.reviews_path.write_text(
            ws.reviews_path.read_text(encoding="utf-8").replace("bad", "sad"),
            encoding="utf-8",
        )
        for business_ids in (None, {"b1"}):
            with pytest.raises(StaleWorkspaceError, match="reviews.jsonl changed since ingest"):
                ws.read_reviews(business_ids)
        # The indexed read checks only the lines it reads, and the file's size.
        with pytest.raises(StaleWorkspaceError, match="reviews.jsonl changed since ingest"):
            ws.read_indexed_reviews({"b2"})
        assert ws.read_indexed_reviews({"b1"}) == [make_review("b1", 4, "nice")]

    def test_ranked(self, ws):
        entries = [RankEntry("b1", 12, 8.4), RankEntry("b2", 3, 2.1)]
        ws.write_ranked(entries)
        record_through(ws, "rank")
        assert ws.read_ranked() == entries

    def test_corpus_stats(self, ws):
        stats = CorpusStats(n_docs=4, df={"pasta": 2, "wine": 1})
        ws.write_corpus_stats(stats)
        record_through(ws, "score")
        loaded = ws.read_corpus_stats()
        assert loaded.n_docs == 4
        assert loaded.df == {"pasta": 2, "wine": 1}


# Business ids whose JSON form needs escapes, or that look like a flag.
# The last two hold ',' and '"' where a scan for the end of the id could
# stop inside it.
ESCAPED_IDS = ['plain', 'quo"te', 'back\\slash', 'caf\u00e9', '\u2603', '-dash',
               'a","b', 'x\\",']


@given(
    extra_ids=st.lists(st.text(alphabet='a-"\\\u00e9\u2603\n,:', min_size=1, max_size=4),
                       max_size=3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_filtered_read_is_the_full_read_filtered(extra_ids, data):
    ids = list(dict.fromkeys(ESCAPED_IDS + extra_ids))
    owners = data.draw(st.lists(st.sampled_from(ids), max_size=20))
    wanted = data.draw(st.frozensets(st.sampled_from(ids + ["ghost"])))
    businesses = [make_business(business_id, {"wifi"}) for business_id in ids]
    reviews = [make_review(owner, 1 + i % 5, "text") for i, owner in enumerate(owners)]
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        record_ingest(ws, businesses, reviews)
        assert ws.read_reviews(wanted) == [r for r in ws.read_reviews() if r.business_id in wanted]
        assert ws.read_indexed_reviews(wanted) == ws.read_reviews(wanted)
        assert ws.read_reviews() == reviews
        assert list(ws.read_businesses(wanted).items()) == [
            (business_id, record) for business_id, record in ws.read_businesses().items()
            if business_id in wanted
        ]
        # A filtered read's records hold the caller's id objects, not copies;
        # fresh copies, so interning cannot make them the same object.
        passed = {business_id: business_id
                  for business_id in ("".join(list(i)) for i in wanted)}
        for record in [*ws.read_reviews(passed), *ws.read_indexed_reviews(passed),
                       *ws.read_businesses(passed).values()]:
            assert record.business_id is passed[record.business_id]


# Ids whose encoded form, with the space after it, is inside the encoded
# form of an id in ESCAPED_IDS: "te" in "quo\"te", "b" in "a\",\"b" and
# "," in "x\\\",". So the index must be searched from a line start.
SUFFIX_IDS = ['te', 'b', ',']


def test_indexed_read_of_every_pair():
    # Every pair compare could ask for, --a equal to --b included, among ids
    # with escapes, ids inside other ids, and businesses without a review;
    # the reviews of one business both adjacent and apart in the file.
    ids = ESCAPED_IDS + SUFFIX_IDS
    owners = ['quo"te', 'quo"te', 'caf\u00e9', 'plain', 'quo"te', '-dash', 'x\\",', 'a","b',
              'back\\slash', 'plain', '\u2603', 'te']
    reviews = [make_review(owner, 1 + i % 5, f"text {i}") for i, owner in enumerate(owners)]
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        record_ingest(ws, [make_business(business_id, {"wifi"}) for business_id in ids], reviews)
        assert ws.read_reviews() == reviews
        for a in ids + ["ghost"]:
            for b in ids + ["ghost"]:
                pair = frozenset((a, b))
                assert ws.read_indexed_reviews(pair) == ws.read_reviews(pair), (a, b)


# Characters csv or json must quote or escape, and a few they pass through.
AWKWARD_TEXT = st.text(alphabet='a\t"\r\n\\,:\0\u00e9\u2603', max_size=6)


@given(profiles=st.lists(st.builds(
    TopicProfile,
    business_id=AWKWARD_TEXT,
    stars=st.integers(1, 5),
    topics=st.lists(st.tuples(AWKWARD_TEXT, st.floats()), max_size=4).map(tuple),
    sentiment_score=st.integers(-9, 9),
), max_size=4))
@settings(max_examples=100, deadline=None)
def test_topics_are_what_csv_writes(profiles):
    expected = io.StringIO()
    writer = csv.writer(expected, delimiter="\t", lineterminator="\n")
    rows = [["business_id", "stars", "rank", "term", "tfidf_weight"]] + [
        [profile.business_id, profile.stars, rank, term, f"{weight:.6f}"]
        for profile in profiles
        for rank, (term, weight) in enumerate(profile.topics, start=1)
    ]
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        try:
            writer.writerows(rows)
        except csv.Error:  # NUL without an escapechar, before Python 3.11
            with pytest.raises(csv.Error):
                ws.write_topics(profiles)
            return
        ws.write_topics(profiles)
        assert ws.topics_path.read_bytes() == expected.getvalue().encode("utf-8")


# AWKWARD_TEXT plus other control characters, a character outside the BMP
# and lone surrogates, which only an escaping writer can put in a UTF-8 file.
# A high surrogate before a low one is not drawn: JSON reads that pair back
# as the one character it encodes.
RECORD_TEXT = st.text(
    alphabet='a\t"\r\n\\,:\0\x1f\x7f\u00e9\u2603\U0001f600\ud800\udfff', max_size=6
).filter(lambda text: "\ud800\udfff" not in text)


@given(
    businesses=st.lists(st.builds(
        make_business,
        RECORD_TEXT,
        st.frozensets(st.sampled_from(sorted(DEFAULT_TAXONOMY.universe))),
        st.sampled_from(sorted(VALID_BUSINESS_STARS)),
    ), max_size=4, unique_by=lambda record: record.business_id),
    reviews=st.lists(st.builds(make_review, RECORD_TEXT, st.integers(1, 5), RECORD_TEXT),
                     max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_record_lines_lead_with_the_id(businesses, reviews):
    # A filtered read finds a line's id at a fixed offset, so each line must
    # start with it, as the writer encodes it; a full read gives back every field.
    # Each line is what json.dumps gives for the record's fields, sorted and compact.
    fields = {
        "businesses_path": [{"business_id": b.business_id, "features": sorted(b.features),
                             "overall_stars": b.overall_stars} for b in businesses],
        "reviews_path": [{"business_id": r.business_id, "stars": r.stars, "text": r.text}
                         for r in reviews],
    }
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        record_ingest(ws, businesses, reviews)
        for path_name, objects in fields.items():
            data = getattr(ws, path_name).read_bytes()
            assert data == "".join(
                json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" for obj in objects
            ).encode("utf-8")
            for line, obj in zip(data.splitlines(), objects, strict=True):
                assert line.startswith(b'{"business_id":' + json.dumps(obj["business_id"]).encode())
        assert ws.read_businesses() == {record.business_id: record for record in businesses}
        assert ws.read_reviews() == reviews


def test_record_lines_are_what_json_dumps_gives_on_every_code_point(ws):
    # Every code point, lone surrogates included, in the id, a feature and
    # the text: json's own escaper writes each the way json.dumps does.
    every = "".join(map(chr, range(0x110000)))
    business = make_business(every, {"wifi", every})
    review = make_review(every, 5, every)
    ws.write_businesses([business])
    ws.write_reviews([review])
    expected = {
        "businesses_path": {"business_id": every, "features": sorted(business.features),
                            "overall_stars": business.overall_stars},
        "reviews_path": {"business_id": every, "stars": 5, "text": every},
    }
    for path_name, obj in expected.items():
        assert getattr(ws, path_name).read_bytes() == (
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")


@pytest.mark.parametrize("writer,record", [
    ("write_reviews", ReviewRecord("b1", True, "text")),
    ("write_reviews", ReviewRecord("b1", 3.0, "text")),
    ("write_reviews", ReviewRecord("b1", "3", "text")),
    ("write_reviews", ReviewRecord(7, 3, "text")),
    ("write_reviews", ReviewRecord("b1", 3, None)),
    ("write_businesses", BusinessRecord("b1", 4, frozenset())),
    ("write_businesses", BusinessRecord("b1", math.nan, frozenset())),
    ("write_businesses", BusinessRecord("b1", math.inf, frozenset())),
    ("write_businesses", BusinessRecord(7, 4.0, frozenset())),
    ("write_businesses", BusinessRecord("b1", 4.0, frozenset({7}))),
], ids=["stars_true", "stars_float", "stars_str", "review_business_id_int", "text_none",
        "overall_stars_int", "overall_stars_nan", "overall_stars_inf", "business_id_int",
        "feature_int"])
def test_record_writers_reject_other_field_types(ws, writer, record):
    # A line holds only what the record types hold: json.dumps would write
    # true, 3.0, NaN or a bare number here, which the line format never has.
    with pytest.raises(TypeError):
        getattr(ws, writer)([record])


@given(df=st.dictionaries(AWKWARD_TEXT, st.integers(1, 10**6), max_size=6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_corpus_stats_are_what_json_dump_writes(df, data):
    n_docs = data.draw(st.integers(max(df.values(), default=1), 10**7))
    expected = io.StringIO()
    json.dump({"n_docs": n_docs, "df": df}, expected, indent=2, sort_keys=True)
    expected.write("\n")
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        ws.write_corpus_stats(CorpusStats(n_docs=n_docs, df=df))
        assert ws.corpus_stats_path.read_bytes() == expected.getvalue().encode("utf-8")


def test_corpus_stats_writer_holds_no_tuple_per_term():
    # The writer streams the sorted terms; sorting the df's items would
    # hold a 64-byte tuple per term until the last line is written.
    terms = 50_000
    stats = CorpusStats(n_docs=9, df={f"term{i}": 1 + i % 9 for i in range(terms)})
    with tempfile.TemporaryDirectory() as root:
        ws = Workspace(root)
        tracemalloc.start()
        try:
            ws.write_corpus_stats(stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 32 * terms, f"peak {peak / terms:.1f} B per term"


class TestDeterministicWriters:
    def test_same_content_same_bytes(self, ws, tmp_path):
        other = Workspace(tmp_path / "other")
        other.root.mkdir()
        entries = [RankEntry("b1", 5, 3.5), RankEntry("b2", 2, 1.2)]
        for target in (ws, other):
            target.write_ranked(entries)
            target.write_frequency({"wifi": 3, "lot": 3, "hastv": 1})
            target.write_taxonomy(DEFAULT_TAXONOMY)
            target.write_cohort_scores(
                CohortScores(combined={1: -3, 5: 9}, average={1: -1.5, 5: 4.5},
                             populated_counts={1: 2, 5: 2})
            )
            target.write_topics([
                TopicProfile("b1", 5, (("pasta", 1.5), ("wine", 0.7)), 3),
            ])
        for name in ("ranked.csv", "feature_frequency.csv", "taxonomy.cfg",
                     "cohort_scores.csv", "topics.tsv"):
            assert (ws.root / name).read_bytes() == (other.root / name).read_bytes()

    def test_frequency_sorted_by_count_then_name(self, ws):
        ws.write_frequency({"wifi": 1, "lot": 3, "hastv": 3})
        lines = ws.frequency_path.read_text(encoding="utf-8").splitlines()
        assert lines == ["feature,frequency", "hastv,3", "lot,3", "wifi,1"]

    def test_unix_line_endings(self, ws):
        ws.write_ranked([RankEntry("b1", 1, 0.7)])
        assert b"\r" not in ws.ranked_path.read_bytes()

    def test_no_timestamps_in_manifest(self, ws):
        record_through(ws, "ingest")
        text = ws.manifest_path.read_text(encoding="utf-8")
        again = Workspace(ws.root)
        record_through(again, "ingest")
        assert ws.manifest_path.read_text(encoding="utf-8") == text
