"""ratingsift benchmark: seeded workloads through the four-command CLI.

    python3 perfbench/run.py --workload reviews --seed 1 --seconds 50 --trace 0

Every command runs as its own process (``python -m ratingsift.cli ...``),
one at a time, in a closed loop with a single client; its wall time and
peak RSS come from ``os.wait4``. Times are reported scaled by a reference
loop timed around each command (see ``REFERENCE_S``), so that swings in
the speed of a shared host cancel out. With ``--trace 0`` the last line of
output is one JSON object with the end-to-end metrics; with ``--trace 1`` a
separate in-process run (trace_run.py) gives the per-layer metrics instead.
The line before it holds the details: corpus shape, sample counts, the tail
percentile, artifact digests, machine facts and every failed check.
Workloads and metrics are described in README.md beside this file.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
VERDICTS = frozenset({"favored_a", "favored_b", "inconclusive"})
IMPORT_PROBES = 25  # fresh interpreters behind cli.import_s
IMPORT_PROBES_PER_ROUND = 2  # fresh interpreters per round behind setup_s
COMPARES_PER_ROUND = 3  # the round's pipeline compare, then two more pairs
K = 50  # topics kept per star document, passed to score as --k
SCORE_PROBES = 3  # score processes in a traced run, to weigh the traced stage against
MIN_ROUNDS = 3  # so every digest is seen at least twice
# Nominal time of spawner.reference(). A command's scaled time is its wall
# time over the reference time measured around it, times this: the wall
# time on a core that runs the reference loop in 30 ms.
REFERENCE_S = 0.03
STAGES = ("ingest", "rank", "score", "compare")
IMPORT_CODE = ("import time; t = time.perf_counter(); import ratingsift.cli; "
               "print(time.perf_counter() - t)")

END_TO_END = (
    ("setup_s", "s"), ("pipeline_s", "s"),
    ("ingest_s", "s"), ("rank_s", "s"), ("score_s", "s"), ("compare_s", "s"),
    ("compare_p50_s", "s"), ("compare_tail_s", "s"),
    ("ingest_rss_mb", "MB"), ("rank_rss_mb", "MB"), ("score_rss_mb", "MB"),
    ("compare_rss_mb", "MB"),
)


class Checks:
    """Counts commands and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Client:
    """Runs CLI commands one at a time, through spawner.py, and keeps their samples."""

    def __init__(self, work, checks):
        self.work = work
        self.checks = checks
        # "<stage>_s" (scaled), "<stage>_wall_s", "<stage>_rss_mb" -> values
        self.samples = defaultdict(list)
        self.references = []  # reference loop times, one per spawned process
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv):
        """Run one process to completion.

        Returns (wall s, scaled s, peak RSS MB, exit code, stdout).
        """
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        if reply["code"] != 0:
            sys.stderr.write(err_path.read_text(errors="replace"))
        self.references.append(reply["reference_s"])
        scaled = reply["wall_s"] / reply["reference_s"] * REFERENCE_S
        return (reply["wall_s"], scaled, reply["maxrss_kb"] / 1024, reply["code"],
                out_path.read_bytes())

    def command(self, stage, args):
        wall, scaled, rss, code, stdout = self.spawn(
            [sys.executable, "-m", "ratingsift.cli", stage, *args])
        self.checks.check(code == 0, f"{stage} exited {code}")
        self.samples[f"{stage}_s"].append(scaled)
        self.samples[f"{stage}_wall_s"].append(wall)
        self.samples[f"{stage}_rss_mb"].append(rss)
        return stdout

    def import_probe(self):
        """Returns (wall s, scaled s, import s) of a fresh interpreter importing the CLI."""
        wall, scaled, _, code, stdout = self.spawn([sys.executable, "-c", IMPORT_CODE])
        self.checks.check(code == 0, f"import probe exited {code}")
        return wall, scaled, float(stdout or 0)


def stage_args(workload, corpus, ws):
    return {
        "ingest": ["--business", str(corpus.business_path), "--reviews",
                   str(corpus.reviews_path), "--workspace", str(ws)],
        "rank": ["--workspace", str(ws), "--cutoff", str(workload.cutoff)],
        "score": ["--workspace", str(ws), "--lexicon", str(corpus.lexicon_path),
                  "--k", str(K)],
    }


def compare_args(ws, pair, fmt):
    # "--a=<id>": Yelp ids may start with "-", which argparse would read as a flag.
    return ["--workspace", str(ws), f"--a={pair[0]}", f"--b={pair[1]}", f"--format={fmt}"]


def compare_cases(corpus, seed):
    """The round's fixed seeded list of (pair, format), formats alternating."""
    rng = random.Random(f"pairs-{seed}")
    return [(tuple(rng.sample(corpus.restaurant_ids, 2)), ("json", "text")[i % 2])
            for i in range(COMPARES_PER_ROUND)]


# output checks ---------------------------------------------------------------

def check_ingest(checks, stdout, expected):
    try:
        summary = json.loads(stdout)
    except ValueError:
        checks.check(False, "ingest summary is not JSON")
        return
    for part, counts in expected.items():
        got = summary.get(part, {})
        for key, value in counts.items():
            checks.check(got.get(key) == value,
                         f"ingest {part}.{key} = {got.get(key)}, generator injected {value}")
        extra = {k: v for k, v in got.items() if k not in counts and v != 0}
        checks.check(not extra, f"ingest {part} has uninjected counts {extra}")


def check_workspace(checks, ws, workload, corpus):
    try:
        _check_workspace(checks, ws, workload, corpus)
    except (OSError, StopIteration, IndexError) as exc:
        checks.check(False, f"workspace artifacts unreadable: {exc!r}")


def _check_workspace(checks, ws, workload, corpus):
    with open(ws / "ranked.csv", newline="", encoding="utf-8") as handle:
        rows = sum(1 for _ in csv.reader(handle)) - 1
    restaurants = len(corpus.restaurant_ids)
    want = restaurants if workload.cutoff == 0 else min(workload.cutoff, restaurants)
    checks.check(rows == want, f"ranked.csv has {rows} rows, want {want}")
    per_doc = defaultdict(int)
    with open(ws / "topics.tsv", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter="\t")
        next(reader)
        for row in reader:
            per_doc[(row[0], row[1])] += 1
    over = sum(1 for n in per_doc.values() if n > K)
    checks.check(bool(per_doc), "topics.tsv has no rows")
    checks.check(over == 0, f"{over} documents exceed k={K} topics")


def check_compare(checks, stdout, fmt):
    text = stdout.decode("utf-8", errors="replace")
    if fmt == "json":
        try:
            verdict = json.loads(text).get("verdict")
        except ValueError:
            verdict = None
    else:
        lines = [ln for ln in text.splitlines() if ln.startswith("verdict: ")]
        verdict = lines[-1][len("verdict: "):] if lines else None
    checks.check(verdict in VERDICTS, f"compare ({fmt}) verdict {verdict!r}")


def artifact_digests(ws):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ws.iterdir()) if p.is_file() and not p.name.startswith(".")}


def check_digests(checks, seen):
    """Every artifact and compare output must repeat byte for byte."""
    for key, digests in sorted(seen.items()):
        checks.check(len(set(digests)) == 1, f"{key} differs across repeats")
    return {key: digests[0] for key, digests in sorted(seen.items())}


# statistics ------------------------------------------------------------------

def tail(samples):
    """Highest whole percentile with at least ten samples beyond it.

    With fewer than twenty samples no such percentile reaches the median,
    and the median is reported; the details line says so.
    """
    n = len(samples)
    percentile = max(50, min(99, (100 * (n - 10)) // n)) if n > 10 else 50
    if n < 2:
        return samples[0], percentile
    return statistics.quantiles(samples, n=100)[percentile - 1], percentile


# workloads -------------------------------------------------------------------

def build(workload, corpus, client, ws, seen):
    """Fresh workspace, then ingest, rank and score; returns their summed time."""
    checks = client.checks
    args = stage_args(workload, corpus, ws)
    shutil.rmtree(ws, ignore_errors=True)
    ingest_out = client.command("ingest", args["ingest"])
    client.command("rank", args["rank"])
    client.command("score", args["score"])
    check_ingest(checks, ingest_out, corpus.expected_summary)
    check_workspace(checks, ws, workload, corpus)
    for name, digest in artifact_digests(ws).items():
        seen[name].append(digest)
    return sum(client.samples[f"{s}_s"][-1] for s in STAGES[:3])


def run_compare(client, ws, case, seen):
    pair, fmt = case
    stdout = client.command("compare", compare_args(ws, pair, fmt))
    check_compare(client.checks, stdout, fmt)
    seen[f"compare {pair[0]} {pair[1]} {fmt} stdout"].append(hashlib.sha256(stdout).hexdigest())


def rounds(workload, corpus, client, seconds, ws, seed, seen):
    """Rounds of ingest, rank, score and compares until the time is spent.

    Set-up here is only what every command pays first, interpreter start
    and import; it is probed inside each round so the probes see the same
    machine as the commands they follow.
    """
    cases = compare_cases(corpus, seed)
    totals, setups, pipeline_compares = [], [], []
    deadline = time.perf_counter() + seconds
    while len(totals) < MIN_ROUNDS or time.perf_counter() < deadline:
        setups += [client.import_probe()[1] for _ in range(IMPORT_PROBES_PER_ROUND)]
        total = build(workload, corpus, client, ws, seen)
        for case in cases:
            run_compare(client, ws, case, seen)
        pipeline_compares.append(client.samples["compare_s"][-len(cases)])
        totals.append(total + pipeline_compares[-1])
    return setups, totals, pipeline_compares


def end_to_end(workload, corpus, client, seconds, work, seed, details):
    median = statistics.median
    seen = defaultdict(list)
    setups, totals, pipeline_compares = rounds(
        workload, corpus, client, seconds, work / "ws", seed, seen)
    compares = client.samples["compare_s"]
    metrics = {"setup_s": median(setups), "pipeline_s": median(totals),
               "compare_s": median(pipeline_compares)}
    for stage in STAGES:
        if stage != "compare":
            metrics[f"{stage}_s"] = median(client.samples[f"{stage}_s"])
        metrics[f"{stage}_rss_mb"] = median(client.samples[f"{stage}_rss_mb"])
    metrics["compare_p50_s"] = median(compares)
    metrics["compare_tail_s"], percentile = tail(compares)
    details["digests"] = check_digests(client.checks, seen)
    details["samples"] = {key: [round(x, 4) for x in v]
                          for key, v in sorted({**client.samples, "setup_s": setups,
                                                "reference_s": client.references}.items())}
    details["compare_tail"] = {"percentile": percentile, "samples": len(compares),
                               "beyond": sum(1 for v in compares if v > metrics["compare_tail_s"])}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


# traced run ------------------------------------------------------------------

def traced(workload, corpus, client, seconds, work, seed, details):
    checks = client.checks
    probes = [client.import_probe() for _ in range(IMPORT_PROBES)]
    ws = work / "ws"
    args = stage_args(workload, corpus, ws)
    commands = [[stage, *args[stage]] for stage in ("ingest", "rank", "score")]
    cases = compare_cases(corpus, seed)
    commands += [["compare", *compare_args(ws, pair, fmt)] for pair, fmt in cases]
    spans_out = ROOT / ".perfbench_out" / f"spans-{workload.name}-{seed}.json"
    spans_out.parent.mkdir(exist_ok=True)
    spec = {"workspace": str(ws), "commands": commands, "lexicon": str(corpus.lexicon_path),
            "seconds": seconds, "spans_out": str(spans_out)}
    spec_path, result_path = work / "trace_spec.json", work / "trace_result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _, _, _, code, _ = client.spawn([sys.executable, str(HERE / "trace_run.py"),
                                     str(spec_path), str(result_path)])
    if not checks.check(code == 0, f"traced run exited {code}"):
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))

    seen = defaultdict(list)
    for rnd in result["untraced"] + result["traced"]:
        for cmd in rnd["commands"]:
            checks.check(cmd["code"] == 0, f"in-process {cmd['argv'][0]} returned {cmd['code']}")
            stdout = cmd["stdout"].encode("utf-8")
            if cmd["argv"][0] == "ingest":
                check_ingest(checks, stdout, corpus.expected_summary)
            elif cmd["argv"][0] == "compare":
                fmt = cmd["argv"][-1].split("=")[1]
                check_compare(checks, stdout, fmt)
                seen[" ".join(["stdout", *cmd["argv"][2:]])].append(hashlib.sha256(stdout).hexdigest())
        for name, digest in rnd["artifacts"].items():
            seen[name].append(digest)
    # The same score as its own process, on the workspace the last round left.
    for _ in range(SCORE_PROBES):
        client.command("score", args["score"])
        for name, digest in artifact_digests(ws).items():
            seen[name].append(digest)
    check_workspace(checks, ws, workload, corpus)
    details["digests"] = check_digests(checks, seen)
    details["trace_rounds"] = len(result["traced"])
    details["absent"] = result["absent"]
    details["spans"] = {"file": str(spans_out.relative_to(ROOT)), "count": result["span_count"]}
    lexicon = result["lexicon"]
    if lexicon is not None:
        want = corpus.lexicon_counts
        checks.check(lexicon["loaded"] == want["loaded"],
                     f"lexicon loaded {lexicon['loaded']}, generator wrote {want['loaded']}")
        checks.check(lexicon["skipped"] == want["multiword"] + want["malformed"],
                     f"lexicon skipped {lexicon['skipped']}, generator wrote "
                     f"{want['multiword']} multi-word and {want['malformed']} malformed")

    rounds = [layer_values(rnd, lexicon) for rnd in result["traced"]]
    values = {key: statistics.median(r[key] for r in rounds if key in r)
              for key in set().union(*rounds)}
    values["cli.import_s"] = statistics.median(imported for _, _, imported in probes)
    values["trace.overhead_ratio"] = result["overhead_ratio"]
    startup_s = statistics.median(wall for wall, _, _ in probes)
    details["score_accounting"] = score_accounting(
        result, client.samples["score_wall_s"], startup_s)
    # A metric nothing produced is listed, and left out rather than read as 0.
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    details["unmeasured"] = [m["name"] for m in per_layer if m["name"] not in values]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in per_layer if m["name"] in values}


def layer_values(rnd, lexicon):
    """Per-layer values of one traced round, summed over its commands."""
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    values = defaultdict(int)
    for stage in rnd["stages"]:
        inner = 0.0
        for name, (calls, total, own) in stage["agg"].items():
            a = agg[name]
            a[0] += calls
            a[1] += total
            a[2] += own
            inner += own
        # cli.main itself is not wrapped: its self time is what the
        # wrapped calls under it do not cover.
        values[f"cli.{stage['stage']}.self_s"] += stage["s"] - inner
        for key, value in stage["counts"].items():
            counts[key] += value
    for name, (calls, total, own) in agg.items():
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = own
        values[f"{name}.calls"] = calls
    values.update(counts)
    for name, top, bottom in RATIOS:
        if top in values and values.get(bottom):
            values[name] = values[top] / values[bottom]
    if lexicon is not None:
        values["sentiment.lexicon.loaded"] = lexicon["loaded"]
        values["sentiment.lexicon.skipped"] = lexicon["skipped"]
    return values


# (metric, numerator, denominator) over one traced round
RATIOS = (
    ("ingest.load_businesses.parsed_ratio",
     "ingest.load_businesses.kept", "ingest.load_businesses.lines"),
    ("ingest.load_reviews.parsed_ratio", "ingest.load_reviews.kept", "ingest.load_reviews.lines"),
    ("ingest.parse_attribute_value.distinct_ratio",
     "ingest.parse_attribute_value.distinct", "ingest.parse_attribute_value.calls"),
    ("sentiment.top_terms.kept_ratio", "sentiment.top_terms.kept", "sentiment.top_terms.terms_weighed"),
)


def score_accounting(result, score_walls, startup_s):
    """How ``score_s`` splits: start-up, then the traced score stage by layer.

    ``score_walls`` are walls of the score command as its own process, and
    ``startup_s`` the median wall of a process that only imports the CLI.
    """
    def stage_s(rnd, stage):
        return sum(c["s"] for c in rnd["commands"] if c["argv"][0] == stage)

    shares = []
    for rnd in result["traced"]:
        stage = next(s for s in rnd["stages"] if s["stage"] == "score")
        layers = defaultdict(float)
        for name, (_, _, own) in stage["agg"].items():
            layers[name.split(".")[0]] += own
        shares.append({"traced_s": stage["s"], **layers})
    traced_s = statistics.median(s["traced_s"] for s in shares)
    untraced_s = statistics.median(stage_s(r, "score") for r in result["untraced"])
    sentiment_workspace = statistics.median(
        s.get("sentiment", 0) + s.get("workspace", 0) for s in shares)
    score_s = statistics.median(score_walls)
    return {
        "score_s": score_s,
        "startup_s": startup_s,
        "untraced_stage_s": untraced_s,
        "traced_stage_s": traced_s,
        "stage_overhead_ratio": traced_s / untraced_s,
        "sentiment_plus_workspace_self_s": sentiment_workspace,
        "sentiment_plus_workspace_over_traced_stage": sentiment_workspace / traced_s,
        "sentiment_plus_workspace_over_score_s": sentiment_workspace / score_s,
        "startup_over_score_s": startup_s / score_s,
        "startup_plus_traced_stage_over_score_s": (startup_s + traced_s) / score_s,
    }


# main ------------------------------------------------------------------------

def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny corpora, to check the harness quickly")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/ratingsift/cli.py", "tests/conftest.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a ratingsift checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from generate import generate
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    details = {"workload": workload.name, "seed": args.seed, "scale": args.scale,
               "trace": args.trace, "environment_before": environment()}
    checks = Checks()
    client = Client(work, checks)
    try:
        corpus = generate(workload.shape(args.scale), args.seed, work / "corpus")
        details["corpus"] = corpus.stats
        measure = traced if args.trace else end_to_end
        metrics = measure(workload, corpus, client, args.seconds, work, args.seed, details)
    finally:
        client.close()
        shutil.rmtree(work, ignore_errors=True)
    details["environment_after"] = environment()
    details["failed_ratio"] = len(checks.failures) / max(checks.attempted, 1)
    details["failures"] = checks.failures
    print(json.dumps(details, sort_keys=True))
    if metrics is None:
        return 1
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
