"""Traced in-process run of the ratingsift CLI, for the per-layer metrics.

Started by run.py as its own process with ``src`` on the path. Each round
removes the workspace and calls ``cli.main`` once per command; rounds
alternate between untraced and traced, until the time budget is spent. A
traced round first wraps, from outside the program:

- the functions and classes ``cli`` imports from the other modules,
- every public ``Workspace`` method,
- ``sentiment.tokenize``, ``sentiment.top_terms`` and
  ``ingest.parse_attribute_value``, which run once per review, document or
  attribute value and are therefore kept as a call count plus total time.

The coarser calls are also kept as spans in memory, with their stage and
self time, and written out when the run ends. A name that is missing from
the program is recorded as absent; run.py then leaves its metrics out.

    python3 perfbench/trace_run.py SPEC.json OUT.json
"""

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from ratingsift import cli, ingest, sentiment, taxonomy, workspace, disparity

MIN_ROUNDS = 2  # traced rounds, however short the time budget

# Names are wrapped where their callers look them up: in the cli module's
# namespace for what cli imports, on the class for methods, and in the
# defining module for the per-call functions, which that module calls.
# Each entry pairs the attribute with the metric prefix it reports under.
CLI_NAMES = (
    ("load_businesses", "ingest.load_businesses"),
    ("load_reviews", "ingest.load_reviews"),
    ("rank_restaurants", "taxonomy.rank_restaurants"),
    ("feature_frequency", "taxonomy.feature_frequency"),
    ("build_star_documents", "sentiment.build_star_documents"),
    ("build_topic_profiles", "sentiment.build_topic_profiles"),
    ("cohort_scores", "sentiment.cohort_scores"),
    ("build_disparity_report", "disparity.build_disparity_report"),
    ("render_text", "disparity.render"),
)
CLASS_METHODS = (
    (sentiment, "CorpusStats", "from_documents", "sentiment.corpus_stats"),
    (sentiment, "SentimentLexicon", "load", "sentiment.lexicon_load"),
    (taxonomy, "FeatureTaxonomy", "load", "taxonomy.load"),
    (disparity, "DisparityReport", "to_json", "disparity.render"),
)
PER_CALL = (
    (sentiment, "tokenize", "sentiment.tokenize"),
    (sentiment, "top_terms", "sentiment.top_terms"),
    (ingest, "parse_attribute_value", "ingest.parse_attribute_value"),
)


class Tracer:
    """Wraps callables; keeps per-name call count, total and self time."""

    def __init__(self):
        self.stack = [0.0]  # time covered by children of each open call
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> number, filled by result hooks
        self.distinct = set()  # raw attribute strings seen this stage
        self.spans = []
        self.stage = None
        self.absent = set()
        self._restore = []

    def wrap(self, owner, attr, name, span, hook=None):
        """Replace ``owner.attr`` with a timing wrapper until ``restore``."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.absent.add(name)
            return
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                took = clock() - start
                inner = stack.pop()
                stack[-1] += took
                agg[0] += 1
                agg[1] += took
                agg[2] += took - inner
                if span:
                    spans.append((self.stage, name, start, took, took - inner, len(stack)))
            if hook is not None:
                self._run_hook(hook, name, args, result)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper)
        self._restore.append((owner, attr, raw))

    def _run_hook(self, hook, name, args, result):
        try:
            hook(self, args, result)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError):
            # The program changed shape under this counter: record, don't fail.
            self.absent.add(name + ":counts")

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def restore(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def take_stage(self):
        """Return and reset what was gathered since the last call."""
        out = {
            "agg": {name: list(v) for name, v in self.agg.items() if v[0]},
            "counts": dict(self.counts),
        }
        if self.distinct:
            out["counts"]["ingest.parse_attribute_value.distinct"] = len(self.distinct)
        for v in self.agg.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.distinct.clear()
        return out


# result hooks --------------------------------------------------------------

def _businesses_hook(tr, args, result):
    records, counters = result
    tr.add("ingest.load_businesses.lines",
           counters.parsed + counters.skipped_malformed + counters.skipped_non_restaurant)
    tr.add("ingest.load_businesses.kept", len(records))


def _reviews_hook(tr, args, result):
    records, counters = result
    tr.add("ingest.load_reviews.lines", counters.parsed + counters.skipped_malformed
           + counters.skipped_unknown_business + counters.skipped_bad_stars)
    tr.add("ingest.load_reviews.kept", len(records))


def _documents_hook(tr, args, result):
    tr.add("sentiment.documents", len(result))
    tr.add("sentiment.empty_documents", sum(1 for d in result if not d.term_counts))


def _stats_hook(tr, args, result):
    tr.counts["sentiment.vocabulary"] = max(tr.counts.get("sentiment.vocabulary", 0), len(result.df))


def _tokenize_hook(tr, args, result):
    tr.add("sentiment.tokenize.tokens", len(result))


def _top_terms_hook(tr, args, result):
    tr.add("sentiment.top_terms.terms_weighed", len(args[0].term_counts))
    tr.add("sentiment.top_terms.kept", len(result))


def _attribute_hook(tr, args, result):
    tr.distinct.add(args[0])


def _size_hook(path_attr, key):
    def hook(tr, args, result):
        tr.add(key, getattr(args[0], path_attr).stat().st_size)
    return hook


def _read_reviews_hook(tr, args, result):
    tr.add("workspace.read_reviews.records", len(result))


HOOKS = {
    "ingest.load_businesses": _businesses_hook,
    "ingest.load_reviews": _reviews_hook,
    "sentiment.build_star_documents": _documents_hook,
    "sentiment.corpus_stats": _stats_hook,
    "sentiment.tokenize": _tokenize_hook,
    "sentiment.top_terms": _top_terms_hook,
    "ingest.parse_attribute_value": _attribute_hook,
    "workspace.write_reviews": _size_hook("reviews_path", "workspace.write_reviews.bytes"),
    "workspace.write_corpus_stats": _size_hook("corpus_stats_path", "workspace.write_corpus_stats.bytes"),
    "workspace.read_reviews": _read_reviews_hook,
}


def install(tr):
    for attr, name in CLI_NAMES:
        tr.wrap(cli, attr, name, span=True, hook=HOOKS.get(name))
    for module, cls_name, attr, name in CLASS_METHODS:
        cls = getattr(module, cls_name, None)
        if cls is None:
            tr.absent.add(name)
            continue
        tr.wrap(cls, attr, name, span=True, hook=HOOKS.get(name))
    ws_cls = workspace.Workspace
    for attr, raw in list(vars(ws_cls).items()):
        if attr.startswith("_") or attr == "lock" or not callable(raw):
            continue
        name = f"workspace.{attr}"
        tr.wrap(ws_cls, attr, name, span=True, hook=HOOKS.get(name))
    for module, attr, name in PER_CALL:
        tr.wrap(module, attr, name, span=False, hook=HOOKS.get(name))


# rounds ---------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_round(spec, tr):
    """Run every command of one round; ``tr`` None means untraced."""
    ws = Path(spec["workspace"])
    shutil.rmtree(ws, ignore_errors=True)
    out = {"commands": [], "stages": [], "total_s": 0.0}
    for argv in spec["commands"]:
        stage = argv[0]
        buf = io.StringIO()
        if tr is not None:
            tr.stage = stage
            install(tr)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            took = time.perf_counter() - start
            if tr is not None:
                tr.restore()
        out["total_s"] += took
        out["commands"].append({"argv": argv, "code": code, "stdout": buf.getvalue(), "s": took})
        if tr is not None:
            stage_data = tr.take_stage()
            stage_data["stage"] = stage
            stage_data["s"] = took
            out["stages"].append(stage_data)
    out["artifacts"] = {
        p.name: _digest(p.read_bytes()) for p in sorted(ws.iterdir()) if p.is_file()
    }
    return out


def lexicon_counts(path):
    counters_cls = getattr(sentiment, "LexiconCounters", None)
    if counters_cls is None:
        return None
    counters = counters_cls()
    sentiment.SentimentLexicon.load(path, counters)
    return {"loaded": counters.loaded,
            "skipped": counters.skipped_multiword + counters.skipped_malformed}


def main(argv=None) -> int:
    spec_path, out_path = (argv or sys.argv[1:])[:2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tr = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + spec["seconds"]
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        untraced.append(run_round(spec, None))
        traced.append(run_round(spec, tr))
    spans = [
        {"stage": s, "name": n, "start_s": round(t0, 6), "s": round(d, 6),
         "self_s": round(own, 6), "depth": depth}
        for s, n, t0, d, own, depth in tr.spans
    ]
    tr.spans.clear()
    result = {
        "untraced": untraced,
        "traced": traced,
        "absent": sorted(tr.absent),
        "lexicon": lexicon_counts(spec["lexicon"]),
        "span_count": len(spans),
        "overhead_ratio": statistics.median(r["total_s"] for r in traced)
        / statistics.median(r["total_s"] for r in untraced),
    }
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    Path(spec["spans_out"]).write_text(json.dumps(spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
