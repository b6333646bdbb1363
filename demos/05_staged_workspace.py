"""Walkthrough: the staged command line pipeline.

The four subcommands (ingest, rank, score, compare) share one workspace
directory. Before it writes, a stage wipes everything downstream; once its
files are written, it records an entry in manifest.json holding its counts,
its settings (the cutoff, k) and the SHA-256 of every file it wrote. Score
keeps the lexicon it used as lexicon.tsv, so compare reads nothing outside
the workspace. So artifacts can never silently mix configurations, and the
digests catch any hand-edited workspace file. All writers are
deterministic, which this script proves by running ingest, rank and score
twice and hashing every file, manifest.json included.

Run from the repository root:  python demos/05_staged_workspace.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from ratingsift.cli import main

DATA = Path(__file__).parent / "data"


def run(argv):
    print(f"$ ratingsift {' '.join(argv)}")
    code = main(argv)
    print(f"  -> exit {code}")
    return code


def digest_all(workspace):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(workspace.iterdir())
        if p.is_file()
    }


def main_demo():
    # the CLI reports stale stages on stderr; keep the two streams in step
    sys.stdout.reconfigure(line_buffering=True)
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"

        print("=== a stage refuses to run before its prerequisites ===")
        run(["rank", "--workspace", str(ws)])
        print("  (exit 2 marks a stale or incomplete workspace)")

        print()
        print("=== the pipeline, in order ===")
        for argv in (
            ["ingest", "--business", str(DATA / "businesses.jsonl"),
             "--reviews", str(DATA / "reviews.jsonl"), "--workspace", str(ws)],
            ["rank", "--workspace", str(ws), "--cutoff", "0"],
            ["score", "--workspace", str(ws),
             "--lexicon", str(DATA / "lexicon.txt"), "--k", "8"],
            ["compare", "--workspace", str(ws),
             "--a", "canal_house", "--b", "dockside_grill", "--format", "text"],
        ):
            print()
            run(argv)

        print()
        print("=== workspace contents ===")
        first = digest_all(ws)
        for name, digest in first.items():
            print(f"  {name:24s} sha256 {digest}…")

        print()
        print("=== rerunning ingest wipes the downstream stages ===")
        run(["ingest", "--business", str(DATA / "businesses.jsonl"),
             "--reviews", str(DATA / "reviews.jsonl"), "--workspace", str(ws)])
        code = main(["compare", "--workspace", str(ws),
                     "--a", "canal_house", "--b", "dockside_grill"])
        print(f"compare now exits {code}: rank and score must run again")

        print()
        print("=== determinism: the rebuilt artifacts hash identically ===")
        run(["rank", "--workspace", str(ws), "--cutoff", "0"])
        run(["score", "--workspace", str(ws),
             "--lexicon", str(DATA / "lexicon.txt"), "--k", "8"])
        second = digest_all(ws)
        identical = first == second
        print(f"all {len(second)} artifacts byte-identical across runs: {identical}")


if __name__ == "__main__":
    main_demo()
