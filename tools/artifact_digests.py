"""Digest every workspace file and command output of one pipeline run.

Runs ingest, rank, score and a seeded list of compares (alternating json
and text) over a corpus written by ``perfbench/generate.py``, each command
as its own process with the package imported from the given source
directory. The compare pairs are drawn from every restaurant ingest kept
(``businesses.jsonl``), as the benchmark draws them from the corpus's
restaurants, so most pairs of a workload with a rank cutoff hold a
restaurant outside the ranked cohort. The command arguments, the rank
cutoff of the workload and the workspace file digests are the benchmark's
own (``perfbench/run.py`` and ``perfbench/workloads.py``), so the pipeline
checked is the one benchmarked.
Then it runs ``rank --cutoff 1`` and ``score`` over the finished
workspace, and ingest, rank and score again. ``rank --cutoff 1`` overwrites
the longer ``ranked.csv`` and ``feature_frequency.csv`` of the first pass in
place, so the writer cuts each to its shorter length, and score then checks
the digest of the ``ranked.csv`` it reads. Ingest overwrites its own files
with the same bytes and deletes the later stages' files, which rank and
score write again. The benchmark starts every round from an empty
workspace and never overwrites a file. Prints one JSON object:
the SHA-256 of every workspace file and of every command's stdout, and every
exit code, ingest's counters by name as its stdout gives them (so a counter
that drifts shows by name), the byte size of every workspace file, and the
name of every entry in the workspace, dotfiles included, with the same for
the second pass under "rerun", whose files must equal the first pass's.
Two source trees that write the same bytes print the same object, so
comparing a parent commit with a change is a ``diff``:

    python3 perfbench/generate.py --workload reviews --seed 5 --out CORPUS_DIR
    python3 tools/artifact_digests.py reviews CORPUS_DIR parent/src > parent.json
    python3 tools/artifact_digests.py reviews CORPUS_DIR src > change.json
    diff parent.json change.json
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import artifact_digests, compare_args, stage_args  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMPARES = 20
SEED = 5  # of the compare pairs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command(src: Path, stage: str, args: list) -> tuple:
    """Run one ratingsift command; return its exit code and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    result = subprocess.run([sys.executable, "-m", "ratingsift.cli", stage, *args],
                            env=env, capture_output=True, check=False)
    return result.returncode, result.stdout


def counters(stdout: bytes) -> dict:
    """Ingest's counters from its stdout, as {"businesses.parsed": n, ...};
    empty when the stdout is not ingest's JSON summary."""
    try:
        summary = json.loads(stdout)
        return {f"{group}.{name}": count
                for group, counts in summary.items() for name, count in counts.items()}
    except (ValueError, AttributeError):
        return {}


def files(ws: Path) -> tuple:
    """The SHA-256 and the byte size of every workspace file, and the sorted
    name of every entry; the digests skip dotfiles, the names do not."""
    digests = artifact_digests(ws)
    return (digests, {name: (ws / name).stat().st_size for name in digests},
            sorted(entry.name for entry in ws.iterdir()))


def digests(workload, corpus_dir: Path, src: Path) -> dict:
    corpus = SimpleNamespace(business_path=corpus_dir / "business.json",
                             reviews_path=corpus_dir / "review.json",
                             lexicon_path=corpus_dir / "lexicon.txt")
    out = {"exit": {}, "stdout": {}}
    rerun = out["rerun"] = {"exit": {}, "stdout": {}}

    def record(into, label, stage, args):
        into["exit"][label], stdout = command(src, stage, args)
        into["stdout"][label] = sha256(stdout)
        if stage == "ingest":
            into["ingest_counters"] = counters(stdout)

    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        stages = stage_args(workload, corpus, ws)
        for stage, args in stages.items():
            record(out, stage, stage, args)
        with open(ws / "businesses.jsonl", encoding="utf-8") as handle:
            ids = sorted(json.loads(line)["business_id"] for line in handle)
        rng = random.Random(SEED)
        for i in range(COMPARES):
            pair = rng.sample(ids, 2)
            record(out, f"compare{i:02d}", "compare",
                   compare_args(ws, pair, ("json", "text")[i % 2]))
        out["files"], out["sizes"], out["entries"] = files(ws)
        record(rerun, "rank-cutoff-1", "rank",
               stage_args(replace(workload, cutoff=1), corpus, ws)["rank"])
        record(rerun, "score-cutoff-1", "score", stages["score"])
        for stage, args in stages.items():
            record(rerun, stage, stage, args)
        rerun["files"], rerun["sizes"], rerun["entries"] = files(ws)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS),
                        help="the benchmark workload the corpus was generated for")
    parser.add_argument("corpus", type=Path, help="directory written by perfbench/generate.py")
    parser.add_argument("src", type=Path, help="source directory holding the ratingsift package")
    args = parser.parse_args(argv)
    print(json.dumps(digests(WORKLOADS[args.workload], args.corpus, args.src),
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
