"""On-disk workspace for the staged pipeline.

Each pipeline stage (ingest, rank, score) writes its artifacts here plus a
manifest entry holding its counters, its settings and the SHA-256 of each
artifact, taken from the bytes as they are written: no stage reads back its
own output. Every read of an artifact goes through ``_reading``, so a
command refuses a file it reads that is missing, not a regular file, damaged
or changed since the stage that wrote it, and the files it does not read
cannot stop it. Compare reads ``reviews.jsonl`` through its index,
``reviews.idx``: the index is read through ``_reading``, and of the record
file only the pair's lines, each business's checked against the digest the
index holds (see ``read_indexed_reviews``). Every open of a workspace file,
to read or to write, goes through ``_open_regular``, which refuses anything
but a regular file and never waits on a FIFO. The lock is an ``flock`` on
the directory, exclusive for a stage and shared for compare, so the
workspace holds nothing else. All writers are deterministic: fixed key
order, fixed six-decimal formatting for rationals, "\n" line endings, and
no timestamps, so identical inputs produce byte-identical files. Each writer
overwrites its file in place and cuts it to length once done (see
``_create``); the manifest is written with one call.
"""

import csv
import errno
import fcntl
import hashlib
import io
import json
import os
import re
import stat
from contextlib import contextmanager
from itertools import groupby
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from .ingest import BusinessRecord, ReviewRecord, _raw_decode
from .sentiment import CohortScores, CorpusStats, SentimentLexicon, TopicProfile
from .taxonomy import FeatureTaxonomy, RankEntry

# Each stage in pipeline order, with the artifacts it writes. Beginning a
# stage deletes the artifacts of every later stage.
STAGES = {
    "ingest": ("businesses.jsonl", "reviews.jsonl", "reviews.idx"),
    "rank": ("taxonomy.cfg", "ranked.csv", "feature_frequency.csv"),
    "score": ("topics.tsv", "cohort_scores.csv", "corpus_stats.json", "lexicon.tsv"),
}
# The stage that writes each artifact.
_WRITER = {name: stage for stage, names in STAGES.items() for name in names}

# The keys of each stage's manifest entry: its counts, the settings later
# stages read, and "files", the SHA-256 of each artifact the stage wrote.
ENTRY_KEYS = {
    "ingest": {"businesses", "files", "reviews"},
    "rank": {"cutoff", "files", "kept"},
    "score": {"documents", "files", "k"},
}


def _artifact(name: str) -> property:
    """A Workspace path property for the file ``name`` under the root."""
    return property(lambda self: self.root / name)


class StaleWorkspaceError(Exception):
    """The workspace is missing a stage or holds artifacts from another config."""


class WorkspaceLockedError(StaleWorkspaceError):
    """Another command currently holds the workspace's advisory lock."""


class Workspace:
    """Handle to one workspace directory; see module docstring."""

    def __init__(self, root):
        self.root = Path(root)
        self._digests = {}  # name -> hex SHA-256 of the bytes this handle last wrote to it

    # artifact paths ----------------------------------------------------

    businesses_path = _artifact("businesses.jsonl")
    reviews_path = _artifact("reviews.jsonl")
    review_index_path = _artifact("reviews.idx")
    taxonomy_path = _artifact("taxonomy.cfg")
    ranked_path = _artifact("ranked.csv")
    frequency_path = _artifact("feature_frequency.csv")
    topics_path = _artifact("topics.tsv")
    cohort_scores_path = _artifact("cohort_scores.csv")
    corpus_stats_path = _artifact("corpus_stats.json")
    lexicon_path = _artifact("lexicon.tsv")
    manifest_path = _artifact("manifest.json")

    # locking -----------------------------------------------------------

    @contextmanager
    def lock(self, shared=False):
        """Advisory per-workspace lock: an ``flock`` on the directory itself
        (POSIX), which the kernel releases however the process ends. A stage
        takes it exclusive; a command that writes nothing may take it
        ``shared``, so such commands run together while a stage excludes
        them all. The directory must exist: locking never creates it."""
        try:
            fd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
        except FileNotFoundError:
            raise StaleWorkspaceError(
                f"workspace {self.root} does not exist; run ingest first"
            ) from None
        try:
            try:
                fcntl.flock(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
            except BlockingIOError:
                raise WorkspaceLockedError(
                    f"workspace {self.root} is locked by another command"
                ) from None
            yield self
        finally:
            os.close(fd)

    # manifest and stages -----------------------------------------------

    def load_manifest(self) -> dict:
        """The manifest, ``{"stages": {stage: entry}}``; a stage is complete
        when it has an entry, which holds its counters and settings."""
        try:
            handle = open(self.manifest_path, "rb", opener=_open_regular)
        except FileNotFoundError:
            return {"stages": {}}
        with handle, _decoding(self.manifest_path):
            manifest = json.loads(handle.read())
            stages = manifest["stages"]
            done = list(STAGES)[:len(stages)]
            # {**entry} raises TypeError, a damaged manifest, unless entry is a mapping;
            # compare reads score's k as its topic count: an int, not a bool, of at least 1
            if set(manifest) != {"stages"} or set(stages) != set(done) or any(
                {**stages[stage]}.keys() != ENTRY_KEYS[stage]
                or {**stages[stage]["files"]}.keys() != set(STAGES[stage]) for stage in done
            ) or "score" in stages and (type(k := stages["score"]["k"]) is not int or k < 1):
                raise ValueError("not the layout this version writes")
        return manifest

    def begin_stage(self, stage: str) -> None:
        """Drop this stage's entry and every later one, then delete the later
        stages' artifacts. Call it just before the stage's first write, so an
        interrupted stage is never claimed by the manifest."""
        order = list(STAGES)
        position = order.index(stage)
        # the first stage keeps nothing, so it also replaces a damaged manifest
        stages = self.load_manifest()["stages"] if position else {}
        kept = {name: entry for name, entry in stages.items() if name in order[:position]}
        _write_json(self.manifest_path, {"stages": kept})
        for later in order[position + 1:]:
            for name in STAGES[later]:
                try:
                    (self.root / name).unlink(missing_ok=True)
                except OSError:  # EISDIR on Linux, EPERM on macOS
                    if not (self.root / name).is_dir():
                        raise
                    raise _not_regular(self.root / name, stage) from None

    def record_stage(self, stage: str, info: dict) -> None:
        """Mark a stage complete, with the SHA-256 ``_create`` took of each artifact."""
        manifest = self.load_manifest()
        files = {name: self._digests[name] for name in STAGES[stage]}
        manifest["stages"][stage] = {**info, "files": files}
        _write_json(self.manifest_path, manifest)

    def require_stage(self, stage: str) -> dict:
        """The entries of the completed stages, once ``stage`` is complete.
        Its files are checked where they are read (see ``_reading``)."""
        stages = self.load_manifest()["stages"]
        if stage not in stages:
            raise StaleWorkspaceError(
                f"workspace {self.root} has no completed {stage!r} stage; "
                f"run the {stage} command first"
            )
        return stages

    @contextmanager
    def _reading(self, path: Path):
        """Open an artifact and yield its handle, under ``_decoding``, with a
        SHA-256 to feed every byte read; on leaving, raise unless that matches
        the digest recorded by the stage that wrote the file."""
        stage = _WRITER[path.name]
        expected = self.require_stage(stage)[stage]["files"][path.name]
        digest = hashlib.sha256()
        with self._open_artifact(path) as handle, _decoding(path):
            yield handle, digest
        if digest.hexdigest() != expected:
            raise self._changed(path)

    def _open_artifact(self, path: Path):
        """The artifact opened for reading in binary; a missing one is stale."""
        try:
            return open(path, "rb", opener=_open_regular)
        except FileNotFoundError:
            raise StaleWorkspaceError(
                f"workspace {self.root} is missing {path.name}; re-run {_WRITER[path.name]}"
            ) from None

    def _changed(self, path: Path) -> StaleWorkspaceError:
        stage = _WRITER[path.name]
        return StaleWorkspaceError(
            f"workspace {self.root}: {path.name} changed since {stage}; re-run {stage}"
        )

    # record files ------------------------------------------------------
    #
    # One line per record: its fields as a compact, key-sorted JSON object,
    # exactly what json.dumps(fields, sort_keys=True, separators=(",", ":"))
    # gives, so every line starts with {"business_id": (see _id_token). A
    # business's features are a sorted list. Each writer builds its line with
    # one f-string: strings through _json_key, review stars through
    # int.__repr__ and overall_stars through float.__repr__, which is what
    # json writes for those types. A field of another type raises TypeError
    # instead of writing a line json.dumps would not. A reader hashes the
    # whole file as it streams it and checks the digest once the last line
    # is read, so it may skip the lines of businesses it does not want and
    # still catch any edit to the file. A filtered read puts the caller's own
    # id object into each record it keeps, so the records of one business
    # share one id string rather than one copy each. Every line is ASCII, so
    # its length in characters is its length in bytes.
    #
    # reviews.idx indexes reviews.jsonl by business. Its first line is
    # "reviews.jsonl <byte size>". Then comes one line per business, in the
    # order of its first review in the file, with three fields separated by
    # spaces: its id as the record lines encode it (_id_token), the SHA-256
    # of its lines in file order, and the offset and length of each run of
    # its adjacent lines, joined by commas ('"b1" <hex> 0,980,4410,490'). An
    # encoded id starts with '"' and holds no newline, and its first
    # unescaped '"' ends it, so "\n" + id + " " is found only at the start
    # of that business's line.

    def write_businesses(self, records: Iterable[BusinessRecord]) -> None:
        with _create(self.businesses_path, self._digests) as handle:
            for business_id, overall_stars, features in records:
                if type(overall_stars) is not float or not isfinite(overall_stars):
                    raise TypeError(f"overall_stars is not a finite float: {overall_stars!r}")
                handle.write(
                    f'{{"business_id":{_json_key(business_id)},'
                    f'"features":[{",".join(map(_json_key, sorted(features)))}],'
                    f'"overall_stars":{overall_stars!r}}}\n'
                )

    def read_businesses(self, business_ids=None) -> dict[str, BusinessRecord]:
        """The business records by id; only those in ``business_ids`` when given."""
        records = self._read_records(self.businesses_path, _business_record, business_ids)
        return {record.business_id: record for record in records}

    def write_reviews(self, reviews: Iterable[ReviewRecord]) -> None:
        """Write reviews.jsonl, a run of adjacent lines of one business at a
        time, then its index, reviews.idx."""
        index = {}  # id token -> [SHA-256 of its lines, [offset, length, ...] of its runs]
        size = 0
        with _create(self.reviews_path, self._digests) as handle:
            for business_id, run in groupby(reviews, itemgetter(0)):
                token = _json_key(business_id)
                lines = []
                for _, stars, text in run:
                    if type(stars) is not int:
                        raise TypeError(f"review stars are not an int: {stars!r}")
                    lines.append(
                        f'{{"business_id":{token},"stars":{stars!r},"text":{_json_key(text)}}}\n'
                    )
                handle.write(block := "".join(lines))
                if (entry := index.get(token)) is None:
                    entry = index[token] = [hashlib.sha256(), []]
                entry[0].update(block.encode())
                entry[1] += (size, len(block))
                size += len(block)
        with _create(self.review_index_path, self._digests) as handle:
            handle.write("".join([f"reviews.jsonl {size}\n", *(
                f"{token} {digest.hexdigest()} {','.join(map(str, runs))}\n"
                for token, (digest, runs) in index.items()
            )]))

    def read_reviews(self, business_ids=None) -> list[ReviewRecord]:
        """The reviews in file order; only those of ``business_ids`` when given."""
        return self._read_records(self.reviews_path, _review_record, business_ids)

    def read_indexed_reviews(self, business_ids) -> list[ReviewRecord]:
        """What ``read_reviews(business_ids)`` gives, reading of reviews.jsonl
        only the lines of ``business_ids``, at the offsets reviews.idx holds.
        The index is hashed whole and checked against its manifest digest.
        Then reviews.jsonl must still have the byte size the index records,
        and each wanted business's lines the SHA-256 it records. So an edit
        that changes the file's length or any line read is caught, and an
        edit of the same length to other businesses' lines is not."""
        index_path = self.review_index_path
        with self._reading(index_path) as (handle, digest):
            digest.update(index := handle.read())
        wanted = []  # (business id, hex SHA-256 of its lines, its (offset, length) runs)
        with _decoding(index_path):
            size = int(index[len(b"reviews.jsonl "):index.index(b"\n")])
            for business_id in business_ids:
                key = b"\n" + _json_key(business_id).encode() + b" "
                start = index.find(key)
                if start < 0:  # no review
                    continue
                start += len(key)
                expected, spans = index[start:index.index(b"\n", start)].decode().split(" ")
                spans = [*map(int, spans.split(","))]
                wanted.append((business_id, expected, zip(spans[::2], spans[1::2])))
        runs = []  # (offset, bytes, business id) of each run read
        with self._open_artifact(self.reviews_path) as reviews:
            fd = reviews.fileno()
            if os.fstat(fd).st_size != size:
                raise self._changed(self.reviews_path)
            for business_id, expected, spans in wanted:
                digest = hashlib.sha256()
                for offset, length in spans:
                    digest.update(data := os.pread(fd, length, offset))
                    runs.append((offset, data, business_id))
                if digest.hexdigest() != expected:
                    raise self._changed(self.reviews_path)
        records = []
        with _decoding(self.reviews_path):
            for _, data, business_id in sorted(runs, key=itemgetter(0)):
                for raw in data.splitlines():
                    obj = _raw_decode(raw.decode("utf-8"))[0]
                    obj["business_id"] = business_id
                    records.append(_review_record(obj))
        return records

    def _read_records(self, path: Path, build, business_ids) -> list:
        # Lines are compared by the writer's own encoding of the id, so a
        # line whose id is not wanted is never decoded. A wanted line is
        # decoded up to the end of its object; the digest catches anything
        # an edit put after it. A record is built under _decoding too, so a
        # line with fields another version wrote (TypeError) is damage.
        wanted = None if business_ids is None else {
            json.dumps(business_id).encode(): business_id for business_id in business_ids
        }
        records = []
        with self._reading(path) as (handle, digest):
            for raw in handle:
                digest.update(raw)
                if wanted is None:
                    records.append(build(_raw_decode(raw.decode("utf-8"))[0]))
                elif (token := _id_token(raw)) in wanted:
                    obj = _raw_decode(raw.decode("utf-8"))[0]
                    obj["business_id"] = wanted[token]
                    records.append(build(obj))
        return records

    # rank artifacts ----------------------------------------------------

    def read_taxonomy(self) -> FeatureTaxonomy:
        with self._reading(self.taxonomy_path) as (handle, digest):
            digest.update(handle.read())
            return FeatureTaxonomy.load(self.taxonomy_path)

    def write_taxonomy(self, taxonomy: FeatureTaxonomy) -> None:
        with _create(self.taxonomy_path, self._digests) as handle:
            handle.write(taxonomy.dumps())

    def write_ranked(self, entries: Iterable[RankEntry]) -> None:
        _write_csv(
            self.ranked_path, self._digests,
            ["business_id", "feature_count", "weighted_score"],
            ([e.business_id, e.feature_count, f"{e.weighted_score:.6f}"] for e in entries),
        )

    def read_ranked(self) -> list[RankEntry]:
        with self._reading(self.ranked_path) as (handle, digest):
            digest.update(data := handle.read())
            rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
            next(rows, None)  # header
            return [RankEntry(row[0], int(row[1]), float(row[2])) for row in rows]

    def write_frequency(self, counts: Mapping[str, int]) -> None:
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        _write_csv(self.frequency_path, self._digests, ["feature", "frequency"], ordered)

    # score artifacts ---------------------------------------------------

    def write_topics(self, profiles: Iterable[TopicProfile]) -> None:
        """The bytes ``csv.writer(delimiter="\\t")`` writes, one line per topic
        built by one f-string, and one write per profile. A profile's terms
        go through ``_tsv_field`` only when their joined text needs csv."""
        with _create(self.topics_path, self._digests) as handle:
            handle.write("business_id\tstars\trank\tterm\ttfidf_weight\n")
            for profile in profiles:
                topics = profile.topics
                if not topics:  # no row, so csv never sees the id
                    continue
                if _NEEDS_CSV("".join(map(itemgetter(0), topics))) is not None:
                    topics = [(_tsv_field(term), weight) for term, weight in topics]
                prefix = f"{_tsv_field(profile.business_id)}\t{profile.stars}\t"
                handle.write("".join([
                    f"{prefix}{rank}\t{term}\t{weight:.6f}\n"
                    for rank, (term, weight) in enumerate(topics, start=1)
                ]))

    def write_cohort_scores(self, scores: CohortScores) -> None:
        _write_csv(
            self.cohort_scores_path, self._digests,
            ["stars", "combined", "average", "populated_count"],
            (
                [stars, scores.combined[stars], f"{scores.average[stars]:.6f}",
                 scores.populated_counts[stars]]
                for stars in sorted(scores.combined)
            ),
        )

    def write_corpus_stats(self, stats: CorpusStats) -> None:
        """The bytes ``json.dump(indent=2, sort_keys=True)`` writes, streamed a
        term at a time: json.dump with an indent encodes in pure Python. The
        terms are sorted alone and each count looked up, so no tuple is built
        per term."""
        df = stats.df
        with _create(self.corpus_stats_path, self._digests) as handle:
            terms = iter(sorted(df))
            first = next(terms, None)
            if first is None:
                handle.write('{\n  "df": {},\n')
            else:
                handle.write(f'{{\n  "df": {{\n    {_json_key(first)}: {df[first]}')
                handle.writelines(f",\n    {_json_key(term)}: {df[term]}" for term in terms)
                handle.write("\n  },\n")
            handle.write(f'  "n_docs": {stats.n_docs}\n}}\n')

    def read_corpus_stats(self) -> CorpusStats:
        with self._reading(self.corpus_stats_path) as (handle, digest):
            digest.update(data := handle.read())
            obj = json.loads(data)
            return CorpusStats(n_docs=obj["n_docs"], df=obj["df"])

    def write_lexicon(self, lexicon: SentimentLexicon) -> None:
        """One term TAB valence line per entry, sorted by term."""
        entries = sorted(lexicon.entries.items())
        with _create(self.lexicon_path, self._digests) as handle:
            handle.writelines(f"{term}\t{valence}\n" for term, valence in entries)

    def read_lexicon(self) -> SentimentLexicon:
        with self._reading(self.lexicon_path) as (handle, digest):
            digest.update(data := handle.read())
            return SentimentLexicon.loads(data.decode("utf-8"))


@contextmanager
def _decoding(path: Path):
    """Report a damaged artifact as a stale workspace, naming the file and
    the stage that rewrites it; ingest rewrites the manifest."""
    try:
        yield
    except (KeyError, IndexError, RecursionError, TypeError, ValueError) as exc:
        stage = _WRITER.get(path.name, "ingest")
        raise StaleWorkspaceError(
            f"workspace {path.parent}: {path.name} is damaged ({exc}); re-run {stage}"
        ) from exc


def _open_regular(path, flags: int) -> int:
    """The opener of every workspace file, for ``open(path, mode,
    opener=_open_regular)``. A missing file to read raises
    FileNotFoundError; anything but a regular file (a directory, a FIFO)
    raises StaleWorkspaceError naming it. The open never blocks: with
    O_NONBLOCK a FIFO opens at once for reading and is refused, where a
    plain open would wait for a writer while the command holds the lock;
    for writing, it fails with ENXIO when no reader has it open. POSIX opens
    a directory for reading, so fstat sees it, and refuses it for writing
    with EISDIR. A write overwrites the file in place: O_TRUNC is dropped
    (see ``_create``)."""
    try:
        fd = os.open(path, flags & ~os.O_TRUNC | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno not in (errno.ENXIO, errno.EISDIR):
            raise
    else:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            return fd
        os.close(fd)
    path = Path(path)
    raise _not_regular(path, _WRITER.get(path.name, "ingest")) from None


def _not_regular(path: Path, stage: str) -> StaleWorkspaceError:
    return StaleWorkspaceError(
        f"workspace {path.parent}: {path.name} is not a regular file; "
        f"remove it and re-run {stage}"
    )


class _HashingFile(io.FileIO):
    """A raw file that feeds each byte it writes to its ``sha256``."""

    def write(self, data):
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        return written


@contextmanager
def _create(path: Path, digests: dict):
    """Open an artifact for writing: UTF-8, "\\n" line endings on every
    platform. The file is overwritten in place and cut to its new length once
    the body has written everything: truncating a file whose blocks are on
    disk waits for the disk (tens of milliseconds on ext4), overwriting it
    does not. An interrupted write leaves new bytes followed by old ones,
    which no manifest entry claims. Each buffer is hashed as it is written, and
    once the file is cut ``digests[path.name]`` holds its SHA-256."""
    digests.pop(path.name, None)
    with (_HashingFile(path, "w", opener=_open_regular) as raw,
          io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="") as handle):
        raw.sha256 = hashlib.sha256()
        yield handle
        handle.truncate()
        digests[path.name] = raw.sha256.hexdigest()


def _write_csv(path: Path, digests: dict, header: list, rows: Iterable) -> None:
    with _create(path, digests) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    """One write of the whole text, so a cut-off manifest rewrite never mixes
    new and old bytes into JSON that parses: it leaves the old file, the new
    one, or the new one followed by an old tail that fails to parse."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with _create(path, {}) as handle:
        handle.write(text)


def _business_record(obj: dict) -> BusinessRecord:
    return BusinessRecord(**{**obj, "features": frozenset(obj["features"])})


def _review_record(obj: dict) -> ReviewRecord:
    return ReviewRecord(**obj)


_ID_START = len('{"business_id":')


def _id_token(raw: bytes) -> bytes:
    """The JSON-encoded id of a record line, quotes included. Every line
    starts with {"business_id": (sorted keys). Inside the id every '"' is
    escaped, so a quote with no backslash before it closes the id; after a
    backslash the id is decoded and encoded again, as the writer encodes it."""
    end = raw.index(b'"', _ID_START + 1) + 1
    if raw[end - 2] != 0x5C:  # b"\\"
        return raw[_ID_START:end]
    return json.dumps(_raw_decode(raw.decode("utf-8"), _ID_START)[0]).encode()


# json's own C escaper for a string under ensure_ascii=True: what json.dumps
# gives for a str, quotes included, for every code point. Anything else
# raises TypeError.
_json_key = json.encoder.encode_basestring_ascii


def _tsv_field(value: str) -> str:
    """``value`` as csv writes it in a tab-separated row. Only a field holding
    a tab, quote, line break or NUL goes through csv, which quotes it or, for
    NUL on Python 3.10, refuses it."""
    if _NEEDS_CSV(value) is None:
        return value
    buffer = io.StringIO()
    csv.writer(buffer, delimiter="\t", lineterminator="\n").writerow([value])
    return buffer.getvalue()[:-1]


_NEEDS_CSV = re.compile('[\t"\r\n\0]').search

