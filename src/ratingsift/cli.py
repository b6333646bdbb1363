"""Command line pipeline: ingest, rank, score, compare.

The four subcommands form a staged pipeline over one workspace directory.
Exit codes: 0 on success, 1 on an input problem (missing file, bad record
stream, unknown business id, bad flag), 2 when the workspace is stale,
locked, damaged, or missing a prerequisite stage, or when the lexicon
changed since score.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

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

    p_score = sub.add_parser("score", help="extract topics and score sentiment")
    p_score.add_argument("--workspace", required=True)
    p_score.add_argument("--lexicon", required=True, help="term/valence lexicon file")
    p_score.add_argument(
        "--k", type=int, default=DEFAULT_TOPIC_COUNT,
        help=f"topic terms per star document (default {DEFAULT_TOPIC_COUNT})",
    )

    p_compare = sub.add_parser("compare", help="pairwise disparity report")
    p_compare.add_argument("--workspace", required=True)
    p_compare.add_argument("--a", required=True, help="first business id")
    p_compare.add_argument("--b", required=True, help="second business id")
    p_compare.add_argument(
        "--format", choices=("json", "text"), default="json", dest="fmt",
        help="report format (default json)",
    )
    return parser


def cmd_ingest(args) -> int:
    workspace = Workspace(args.workspace)
    # The only command that creates a workspace; the others need ingest's.
    workspace.root.mkdir(parents=True, exist_ok=True)
    with workspace.lock():
        businesses, business_counters = load_businesses(args.business)
        reviews, review_counters = load_reviews(
            args.reviews, known_business_ids=businesses.keys()
        )
        workspace.begin_stage("ingest")
        workspace.write_businesses(businesses.values())
        workspace.write_reviews(reviews)
        summary = {
            "businesses": business_counters.as_dict(),
            "reviews": review_counters.as_dict(),
        }
        workspace.write_ingest_summary(summary)
        workspace.record_stage("ingest", {
            "businesses": business_counters.parsed,
            "reviews": review_counters.parsed,
            "tool_version": __version__,
        })
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_rank(args) -> int:
    workspace = Workspace(args.workspace)
    with workspace.lock():
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
        frequency = feature_frequency(ranked, businesses, taxonomy)
        workspace.begin_stage("rank")
        workspace.write_taxonomy(taxonomy)
        workspace.write_ranked(ranked.entries)
        workspace.write_frequency(frequency)
        workspace.record_stage("rank", {
            "config_hash": taxonomy.config_hash(),
            "cutoff": args.cutoff,
            "kept": len(ranked.entries),
        })
    print(f"ranked {len(ranked.entries)} restaurants (cutoff {args.cutoff})")
    return 0


def cmd_score(args) -> int:
    workspace = Workspace(args.workspace)
    with workspace.lock():
        stages = workspace.require_stage("rank")
        if args.k < 1:
            raise IngestError("--k must be at least 1")
        workspace.verify_taxonomy_hash(stages["rank"]["config_hash"])
        lexicon = SentimentLexicon.load(args.lexicon)
        lexicon_sha256 = _sha256(args.lexicon)
        cohort_ids = frozenset(e.business_id for e in workspace.read_ranked())
        reviews = workspace.read_reviews()
        documents = build_star_documents(reviews, cohort_ids)
        stats = CorpusStats.from_documents(documents)
        profiles = build_topic_profiles(documents, stats, k=args.k, lexicon=lexicon)
        scores = cohort_scores(profiles)
        workspace.begin_stage("score")
        workspace.write_topics(profiles)
        workspace.write_cohort_scores(scores)
        workspace.write_corpus_stats(stats)
        workspace.record_stage("score", {
            "documents": len(documents),
            "k": args.k,
            # Absolute, so compare finds the lexicon from any directory.
            "lexicon_path": os.path.abspath(args.lexicon),
            "lexicon_sha256": lexicon_sha256,
        })
    lines = [f"scored {len(documents)} star documents over {len(cohort_ids)} restaurants"]
    for stars in sorted(scores.combined):
        lines.append(
            f"  stars={stars} combined={scores.combined[stars]} "
            f"average={scores.average[stars]:.6f}"
        )
    print("\n".join(lines))
    return 0


def cmd_compare(args) -> int:
    workspace = Workspace(args.workspace)
    with workspace.lock():
        stages = workspace.require_stage("score")
        score = stages["score"]
        taxonomy = workspace.verify_taxonomy_hash(stages["rank"]["config_hash"])
        if _sha256(score["lexicon_path"]) != score["lexicon_sha256"]:
            raise StaleWorkspaceError(
                f"lexicon {score['lexicon_path']} changed since the score command; "
                "re-run score"
            )
        lexicon = SentimentLexicon.load(score["lexicon_path"])
        businesses = workspace.read_businesses()
        for business_id in (args.a, args.b):
            if business_id not in businesses:
                raise IngestError(f"unknown business id: {business_id}")
        stats = workspace.read_corpus_stats()
        reviews = workspace.read_reviews()
        pair_ids = frozenset((args.a, args.b))
        documents = build_star_documents(reviews, pair_ids)
        profiles = build_topic_profiles(
            documents, stats, k=score["k"], lexicon=lexicon
        )
        report = build_disparity_report(
            businesses[args.a],
            businesses[args.b],
            profiles_a=[p for p in profiles if p.business_id == args.a],
            profiles_b=[p for p in profiles if p.business_id == args.b],
            taxonomy=taxonomy,
        )
    if args.fmt == "text":
        print(render_text(report), end="")
    else:
        print(report.to_json(), end="")
    return 0


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_COMMANDS = {
    "ingest": cmd_ingest,
    "rank": cmd_rank,
    "score": cmd_score,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # Flag mistakes are input errors (exit 1), not stale-workspace errors.
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except StaleWorkspaceError as exc:
        print(f"ratingsift: {exc}", file=sys.stderr)
        return 2
    except (IngestError, OSError, ValueError) as exc:
        print(f"ratingsift: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
