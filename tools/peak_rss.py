"""Median peak RSS of each ratingsift command, spawned from a small parent.

On Linux a child's ``ru_maxrss`` never reads below the resident size of the
process that spawned it, because that memory is shared with or copied into
the child until ``exec``. The benchmark's spawner builds a 100k-key table
for its reference timing, so every peak below about 29.75 MB reads as that
floor there. This tool spawns each command from a parent that runs under
``python3 -S`` and imports only ``json``, ``os`` and ``sys``: each command
is started with ``os.posix_spawn``, reaped with ``os.wait4`` and pinned,
with its parent, to one CPU. The command arguments and the rank cutoff of
the workload are the benchmark's own (``perfbench/run.py`` and
``perfbench/workloads.py``). The compare pairs are drawn from every
restaurant ingest kept (``businesses.jsonl``), as the benchmark and
``tools/artifact_digests.py`` draw them, so on a workload with a rank
cutoff most pairs hold a restaurant outside the ranked cohort.

It runs ingest, rank, score and compare (seeded pairs, formats alternating)
``--runs`` times each, in that order over one workspace, and prints one
JSON object: for each command, the median peak RSS in MB (KiB / 1024, as
the benchmark reports it) and every run's reading. Readings vary from run
to run, so compare two source trees by their medians over alternating
invocations, not with ``diff``:

    python3 perfbench/generate.py --workload reviews --seed 5 --out CORPUS_DIR
    python3 tools/peak_rss.py reviews CORPUS_DIR src --runs 7
"""

import json
import os
import sys

SEED = 5  # of the compare pairs


def spawn_loop() -> int:
    """The small parent: one JSON argv per stdin line; for each, one
    ``[exit code, ru_maxrss in KiB]`` line on stdout."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    for line in sys.stdin:
        argv = json.loads(line)
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]) + "\n")
        sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    import argparse
    import random
    import statistics
    import subprocess
    import tempfile
    from pathlib import Path
    from types import SimpleNamespace

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from run import compare_args, stage_args
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS),
                        help="the benchmark workload the corpus was generated for")
    parser.add_argument("corpus", type=Path, help="directory written by perfbench/generate.py")
    parser.add_argument("src", type=Path, help="source directory holding the ratingsift package")
    parser.add_argument("--runs", type=int, default=7, help="runs of each command (default 7)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    corpus = SimpleNamespace(business_path=args.corpus / "business.json",
                             reviews_path=args.corpus / "review.json",
                             lexicon_path=args.corpus / "lexicon.txt")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    loop = subprocess.Popen([sys.executable, "-S", __file__, "--spawn"], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    peaks = {}

    def run(stage, stage_argv) -> None:
        loop.stdin.write(json.dumps([sys.executable, "-m", "ratingsift.cli", stage,
                                     *stage_argv]) + "\n")
        loop.stdin.flush()
        code, maxrss_kb = json.loads(loop.stdout.readline())
        if code != 0:
            raise SystemExit(f"{stage} exited {code}")
        peaks.setdefault(stage, []).append(round(maxrss_kb / 1024, 2))

    with loop, tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        for stage, stage_argv in stage_args(WORKLOADS[args.workload], corpus, ws).items():
            for _ in range(args.runs):
                run(stage, stage_argv)
        with open(ws / "businesses.jsonl", encoding="utf-8") as handle:
            ids = sorted(json.loads(line)["business_id"] for line in handle)
        rng = random.Random(SEED)
        for i in range(args.runs):
            run("compare", compare_args(ws, rng.sample(ids, 2), ("json", "text")[i % 2]))
        loop.stdin.close()
    print(json.dumps({stage: {"median_mb": round(statistics.median(runs), 2), "runs_mb": runs}
                      for stage, runs in peaks.items()}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(spawn_loop() if sys.argv[1:] == ["--spawn"] else main())
