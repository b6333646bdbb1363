"""On-disk workspace for the staged pipeline.

Each pipeline stage (ingest, rank, score) writes its artifacts here plus a
manifest entry; later stages refuse to run on a stale workspace instead of
silently using mismatched artifacts. All writers are deterministic: fixed
key order, fixed six-decimal formatting for rationals, "\n" line endings,
and no timestamps, so identical inputs produce byte-identical files.
"""

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping

from .ingest import BusinessRecord, ReviewRecord
from .sentiment import CohortScores, CorpusStats, TopicProfile
from .taxonomy import FeatureTaxonomy, RankEntry

# Each stage in pipeline order, with the artifacts it writes. Beginning a
# stage deletes the artifacts of every later stage.
STAGES = {
    "ingest": ("businesses.jsonl", "reviews.jsonl", "ingest_summary.json"),
    "rank": ("taxonomy.cfg", "ranked.csv", "feature_frequency.csv"),
    "score": ("topics.tsv", "cohort_scores.csv", "corpus_stats.json"),
}

# The keys of each stage's manifest entry: its counts, and the settings
# later stages read.
ENTRY_KEYS = {
    "ingest": {"businesses", "reviews", "tool_version"},
    "rank": {"config_hash", "cutoff", "kept"},
    "score": {"documents", "k", "lexicon_path", "lexicon_sha256"},
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

    # artifact paths ----------------------------------------------------

    businesses_path = _artifact("businesses.jsonl")
    reviews_path = _artifact("reviews.jsonl")
    ingest_summary_path = _artifact("ingest_summary.json")
    taxonomy_path = _artifact("taxonomy.cfg")
    ranked_path = _artifact("ranked.csv")
    frequency_path = _artifact("feature_frequency.csv")
    topics_path = _artifact("topics.tsv")
    cohort_scores_path = _artifact("cohort_scores.csv")
    corpus_stats_path = _artifact("corpus_stats.json")
    manifest_path = _artifact("manifest.json")
    lock_path = _artifact(".lock")

    # locking -----------------------------------------------------------

    @contextmanager
    def lock(self):
        """Advisory per-workspace lock; one command at a time. The workspace
        directory must exist: locking never creates it."""
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise WorkspaceLockedError(
                f"workspace {self.root} is locked by another command "
                f"(remove {self.lock_path} if that command crashed)"
            ) from None
        except FileNotFoundError:
            raise StaleWorkspaceError(
                f"workspace {self.root} does not exist; run ingest first"
            ) from None
        os.close(fd)
        try:
            yield self
        finally:
            self.lock_path.unlink(missing_ok=True)

    # manifest and stages -----------------------------------------------

    def load_manifest(self) -> dict:
        """The manifest, ``{"stages": {stage: entry}}``; a stage is complete
        when it has an entry, which holds its counters and settings."""
        if not self.manifest_path.exists():
            return {"stages": {}}
        with _decoding(self.manifest_path):
            manifest = _read_json(self.manifest_path)
            stages = manifest["stages"]
            done = list(STAGES)[:len(stages)]
            if set(manifest) != {"stages"} or set(stages) != set(done) or any(
                set(stages[stage]) != ENTRY_KEYS[stage] for stage in done
            ):
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
                (self.root / name).unlink(missing_ok=True)

    def record_stage(self, stage: str, info: dict) -> None:
        """Mark a stage complete once all its artifacts are written."""
        manifest = self.load_manifest()
        manifest["stages"][stage] = info
        _write_json(self.manifest_path, manifest)

    def require_stage(self, stage: str) -> dict:
        """The entries of the completed stages, once ``stage`` and every
        earlier stage are complete and their artifacts present."""
        stages = self.load_manifest()["stages"]
        if stage not in stages:
            raise StaleWorkspaceError(
                f"workspace {self.root} has no completed {stage!r} stage; "
                f"run the {stage} command first"
            )
        order = list(STAGES)
        for earlier in order[:order.index(stage) + 1]:
            for name in STAGES[earlier]:
                if not (self.root / name).exists():
                    raise StaleWorkspaceError(
                        f"workspace {self.root} is missing {name}; re-run {earlier}"
                    )
        return stages

    def verify_taxonomy_hash(self, expected_hash: str) -> FeatureTaxonomy:
        """Load the workspace taxonomy, checking it still has ``expected_hash``."""
        if not self.taxonomy_path.exists():
            raise StaleWorkspaceError(f"workspace {self.root} has no taxonomy.cfg")
        with _decoding(self.taxonomy_path):
            taxonomy = FeatureTaxonomy.load(self.taxonomy_path)
        if taxonomy.config_hash() != expected_hash:
            raise StaleWorkspaceError(
                "taxonomy.cfg does not match the manifest config hash; "
                "re-run the rank command"
            )
        return taxonomy

    # record files ------------------------------------------------------

    def write_businesses(self, records: Iterable[BusinessRecord]) -> None:
        _write_jsonl(self.businesses_path, (r.to_json_dict() for r in records))

    def read_businesses(self) -> dict[str, BusinessRecord]:
        out: dict[str, BusinessRecord] = {}
        with _decoding(self.businesses_path):
            for obj in _read_jsonl(self.businesses_path):
                record = BusinessRecord.from_json_dict(obj)
                out[record.business_id] = record
        return out

    def write_reviews(self, reviews: Iterable[ReviewRecord]) -> None:
        _write_jsonl(self.reviews_path, (r.to_json_dict() for r in reviews))

    def read_reviews(self) -> list[ReviewRecord]:
        with _decoding(self.reviews_path):
            return [ReviewRecord.from_json_dict(obj) for obj in _read_jsonl(self.reviews_path)]

    def write_ingest_summary(self, summary: dict) -> None:
        _write_json(self.ingest_summary_path, summary)

    # rank artifacts ----------------------------------------------------

    def write_taxonomy(self, taxonomy: FeatureTaxonomy) -> None:
        with _create(self.taxonomy_path) as handle:
            handle.write(taxonomy.dumps())

    def write_ranked(self, entries: Iterable[RankEntry]) -> None:
        _write_csv(
            self.ranked_path,
            ["business_id", "feature_count", "weighted_score"],
            ([e.business_id, e.feature_count, f"{e.weighted_score:.6f}"] for e in entries),
        )

    def read_ranked(self) -> list[RankEntry]:
        with _decoding(self.ranked_path):
            with open(self.ranked_path, "r", encoding="utf-8", newline="") as handle:
                rows = csv.reader(handle)
                next(rows, None)  # header
                return [RankEntry(row[0], int(row[1]), float(row[2])) for row in rows]

    def write_frequency(self, counts: Mapping[str, int]) -> None:
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        _write_csv(self.frequency_path, ["feature", "frequency"], ordered)

    # score artifacts ---------------------------------------------------

    def write_topics(self, profiles: Iterable[TopicProfile]) -> None:
        _write_csv(
            self.topics_path,
            ["business_id", "stars", "rank", "term", "tfidf_weight"],
            (
                [profile.business_id, profile.stars, rank, term, f"{weight:.6f}"]
                for profile in profiles
                for rank, (term, weight) in enumerate(profile.topics, start=1)
            ),
            delimiter="\t",
        )

    def write_cohort_scores(self, scores: CohortScores) -> None:
        _write_csv(
            self.cohort_scores_path,
            ["stars", "combined", "average", "populated_count"],
            (
                [stars, scores.combined[stars], f"{scores.average[stars]:.6f}",
                 scores.populated_counts[stars]]
                for stars in sorted(scores.combined)
            ),
        )

    def write_corpus_stats(self, stats: CorpusStats) -> None:
        _write_json(self.corpus_stats_path, {"n_docs": stats.n_docs, "df": stats.df})

    def read_corpus_stats(self) -> CorpusStats:
        with _decoding(self.corpus_stats_path):
            obj = _read_json(self.corpus_stats_path)
            return CorpusStats(n_docs=obj["n_docs"], df=obj["df"])


@contextmanager
def _decoding(path: Path):
    """Report a damaged artifact as a stale workspace, naming the file and
    the stage that rewrites it; ingest rewrites the manifest."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        stage = next((s for s, names in STAGES.items() if path.name in names), "ingest")
        raise StaleWorkspaceError(
            f"workspace {path.parent}: {path.name} is damaged ({exc}); re-run {stage}"
        ) from exc


def _create(path: Path):
    """Open an artifact for writing: UTF-8, "\\n" line endings on every platform."""
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(path: Path, header: list, rows: Iterable, delimiter: str = ",") -> None:
    with _create(path) as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    with _create(path) as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_jsonl(path: Path, objects: Iterable[dict]) -> None:
    with _create(path) as handle:
        for obj in objects:
            handle.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def _read_jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
