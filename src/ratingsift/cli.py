"""Command line pipeline: ingest, rank, score, compare.

The four subcommands form a staged pipeline over one workspace directory.
``main`` is the one place a command runs: it opens the workspace, creates
the directory for ingest only, holds the workspace lock (an ``flock`` the
kernel drops however the process ends) while the command runs, and prints
the text the command returns once the lock is released. A stage holds the
lock exclusive; compare, which writes nothing, holds it shared, so
compares run together.
Each ``cmd_*(args, workspace)`` checks its stage before its flags and reads
only the workspace files its output depends on. Of reviews.jsonl, compare
reads only the pair's lines, found and checked through the index ingest
writes beside it (``Workspace.read_indexed_reviews``); score reads it whole.
Score profiles its star documents after ``begin_stage``, one at a time as
topics.tsv is written, so a document that fails to profile fails the stage
like a failed write: the manifest claims no score stage.
Score keeps the lexicon it used in the workspace, so compare reads no file
outside it. Exit codes: 0 on success, 1 on an input problem (missing file, bad
record stream, unknown business id, bad flag, a failed workspace write), 2
when the workspace does not exist, is locked or lacks a prerequisite stage,
when a workspace file the command reads is missing, damaged or changed since
the stage that wrote it, or when one it reads or writes is not a regular
file.
``entrypoint``, the process's entry point (``python -m ratingsift.cli`` and
the ``ratingsift`` script), calls ``gc.freeze()`` once ``main`` returns:
every file and the lock are closed by then, so the full collections that
interpreter shutdown runs would walk the heap start-up built and free
nothing that matters. Frozen objects are skipped; output is still flushed,
``atexit`` still runs and the exit code is unchanged. ``main`` never
freezes: tests and the demos run it in-process, where a freeze would keep
whatever is alive then out of every later collection.
"""

import argparse
import gc
import json
import sys

from . import __version__
from .disparity import build_disparity_report, render_text
from .ingest import IngestError, load_businesses, load_reviews
from .sentiment import (
    SentimentLexicon,
    build_star_documents,
    build_topic_profiles,
    cohort_scores,
    CorpusStats,
)
from .taxonomy import (
    DEFAULT_TAXONOMY,
    FeatureTaxonomy,
    feature_frequency,
    rank_restaurants,
)
from .workspace import StaleWorkspaceError, Workspace

DEFAULT_CUTOFF = 500
DEFAULT_TOPIC_COUNT = 50


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratingsift",
        description="Rank restaurants by listed features and compare "
        "review-text sentiment across star levels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse raw business and review files")
    p_ingest.add_argument("--business", required=True, help="business JSON-lines file")
    p_ingest.add_argument("--reviews", required=True, help="review JSON-lines file")
    p_ingest.add_argument("--workspace", required=True, help="workspace directory")
    p_ingest.set_defaults(run=cmd_ingest)

    p_rank = sub.add_parser("rank", help="rank ingested restaurants by feature count")
    p_rank.add_argument("--workspace", required=True)
    p_rank.add_argument(
        "--cutoff", type=int, default=DEFAULT_CUTOFF,
        help=f"keep this many top restaurants; 0 keeps all (default {DEFAULT_CUTOFF})",
    )
    p_rank.add_argument(
        "--taxonomy", default=None,
        help="feature taxonomy config file (default: built-in four categories)",
    )
    p_rank.set_defaults(run=cmd_rank)

    p_score = sub.add_parser("score", help="extract topics and score sentiment")
    p_score.add_argument("--workspace", required=True)
    p_score.add_argument("--lexicon", required=True, help="term/valence lexicon file")
    p_score.add_argument(
        "--k", type=int, default=DEFAULT_TOPIC_COUNT,
        help=f"topic terms per star document (default {DEFAULT_TOPIC_COUNT})",
    )
    p_score.set_defaults(run=cmd_score)

    p_compare = sub.add_parser("compare", help="pairwise disparity report")
    p_compare.add_argument("--workspace", required=True)
    p_compare.add_argument("--a", required=True, help="first business id")
    p_compare.add_argument("--b", required=True, help="second business id")
    p_compare.add_argument(
        "--format", choices=("json", "text"), default="json", dest="fmt",
        help="report format (default json)",
    )
    p_compare.set_defaults(run=cmd_compare)
    return parser


def cmd_ingest(args, workspace) -> str:
    businesses, business_counters = load_businesses(args.business)
    reviews, review_counters = load_reviews(args.reviews, known_business_ids=businesses.keys())
    workspace.begin_stage("ingest")
    workspace.write_businesses(businesses.values())
    workspace.write_reviews(reviews)
    summary = {
        "businesses": business_counters.as_dict(),
        "reviews": review_counters.as_dict(),
    }
    workspace.record_stage("ingest", summary)
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def cmd_rank(args, workspace) -> str:
    workspace.require_stage("ingest")
    if args.cutoff < 0:
        raise IngestError("--cutoff must be zero or positive")
    if args.taxonomy is None:
        taxonomy = DEFAULT_TAXONOMY
    else:
        taxonomy = FeatureTaxonomy.load(args.taxonomy)
        missing = sorted(DEFAULT_TAXONOMY.universe - taxonomy.universe)
        unknown = sorted(taxonomy.universe - DEFAULT_TAXONOMY.universe)
        if missing or unknown:
            raise IngestError(
                f"taxonomy {args.taxonomy} must place each built-in feature in exactly "
                f"one category (weight 0 drops one from the scores): "
                f"missing {missing}, unknown {unknown}"
            )
    businesses = workspace.read_businesses()
    ranked = rank_restaurants(businesses.values(), taxonomy, cutoff=args.cutoff)
    frequency = feature_frequency(ranked, businesses)
    workspace.begin_stage("rank")
    workspace.write_taxonomy(taxonomy)
    workspace.write_ranked(ranked.entries)
    workspace.write_frequency(frequency)
    workspace.record_stage("rank", {"cutoff": args.cutoff, "kept": len(ranked.entries)})
    return f"ranked {len(ranked.entries)} restaurants (cutoff {args.cutoff})\n"


def cmd_score(args, workspace) -> str:
    workspace.require_stage("rank")
    if args.k < 1:
        raise IngestError("--k must be at least 1")
    lexicon = SentimentLexicon.load(args.lexicon)
    cohort_ids = frozenset(e.business_id for e in workspace.read_ranked())
    # Popped off the list one at a time, so each record is freed once its
    # text is gathered, and the text once its document is tokenized. The
    # reversed order does not change the documents.
    reviews = workspace.read_reviews(cohort_ids)
    documents = build_star_documents((reviews.pop() for _ in range(len(reviews))), cohort_ids)
    if not documents:
        raise IngestError(
            f"none of the {len(cohort_ids)} ranked restaurants has a review; "
            "there is nothing to score"
        )
    stats = CorpusStats.from_documents(documents)
    n_documents = len(documents)
    workspace.begin_stage("score")
    # Profiling follows begin_stage: each document is profiled as topics.tsv
    # is written, and it and its topics are freed once their rows are out.
    # Reversed, so pop() takes them in sorted order. cohort_scores needs only
    # each profile's stars and sentiment score, so it gets copies without topics.
    documents.reverse()
    scored = []

    def profiles():
        while documents:
            [profile] = build_topic_profiles([documents.pop()], stats, k=args.k, lexicon=lexicon)
            scored.append(profile._replace(topics=()))
            yield profile

    workspace.write_topics(profiles())
    scores = cohort_scores(scored)
    workspace.write_cohort_scores(scores)
    workspace.write_corpus_stats(stats)
    workspace.write_lexicon(lexicon)
    workspace.record_stage("score", {"documents": n_documents, "k": args.k})
    lines = [f"scored {n_documents} star documents over {len(cohort_ids)} restaurants"]
    for stars in sorted(scores.combined):
        lines.append(
            f"  stars={stars} combined={scores.combined[stars]} "
            f"average={scores.average[stars]:.6f}"
        )
    return "\n".join(lines) + "\n"


def cmd_compare(args, workspace) -> str:
    score = workspace.require_stage("score")["score"]
    taxonomy = workspace.read_taxonomy()
    lexicon = workspace.read_lexicon()
    pair_ids = frozenset((args.a, args.b))
    businesses = workspace.read_businesses(pair_ids)
    for business_id in (args.a, args.b):
        if business_id not in businesses:
            raise IngestError(f"unknown business id: {business_id}")
    stats = workspace.read_corpus_stats()
    documents = build_star_documents(workspace.read_indexed_reviews(pair_ids), pair_ids)
    # business id -> stars -> sentiment score; --a equal to --b shares one map.
    scores: dict[str, dict[int, int]] = {business_id: {} for business_id in pair_ids}
    for profile in build_topic_profiles(documents, stats, k=score["k"], lexicon=lexicon):
        scores[profile.business_id][profile.stars] = profile.sentiment_score
    report = build_disparity_report(
        businesses[args.a],
        businesses[args.b],
        scores_a=scores[args.a],
        scores_b=scores[args.b],
        taxonomy=taxonomy,
    )
    return render_text(report) if args.fmt == "text" else report.to_json()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # Flag mistakes are input errors (exit 1), not stale-workspace errors.
        return 0 if exc.code in (0, None) else 1
    workspace = Workspace(args.workspace)
    try:
        if args.command == "ingest":
            # The only command that creates a workspace; the others need ingest's.
            workspace.root.mkdir(parents=True, exist_ok=True)
        # Compare writes nothing, so compares share the lock; a stage excludes all.
        with workspace.lock(shared=args.command == "compare"):
            output = args.run(args, workspace)
        sys.stdout.write(output)
        return 0
    except StaleWorkspaceError as exc:
        print(f"ratingsift: {exc}", file=sys.stderr)
        return 2
    except (IngestError, OSError, ValueError) as exc:
        print(f"ratingsift: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Run ``main`` on ``sys.argv`` and exit with its code.

    The freeze comes after ``main``, not before, so it also takes what the
    command kept until exit, which shutdown's collections would otherwise
    walk. It stays out of ``main``, which tests call in-process.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
