"""Pairwise restaurant comparison: feature gaps, weighted deficiencies,
per-star sentiment deltas, and a two-signal verdict.

A restaurant is favored only when both signals agree: it lacks strictly
less (by weighted deficiency) AND its net sentiment is strictly better.
Anything else, ties included, is inconclusive. Overall star ratings are
carried for display but never influence the verdict.
"""

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .ingest import BusinessRecord
from .sentiment import TopicProfile
from .taxonomy import DEFAULT_TAXONOMY, FeatureTaxonomy, weighted_feature_score

STAR_LEVELS = (1, 2, 3, 4, 5)

FAVORED_A = "favored_a"
FAVORED_B = "favored_b"
INCONCLUSIVE = "inconclusive"

ProfilesInput = Union[Iterable[TopicProfile], Mapping[int, int]]


def compare_features(
    a: BusinessRecord, b: BusinessRecord
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Set algebra over two flattened feature sets.

    Returns (common, missing_a, missing_b): common = a ∩ b, missing_a are
    features b has that a lacks, missing_b the reverse.
    """
    common = a.features & b.features
    missing_a = b.features - a.features
    missing_b = a.features - b.features
    return frozenset(common), frozenset(missing_a), frozenset(missing_b)


def weighted_deficiency(
    missing: Iterable[str], taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY
) -> float:
    """Weighted sum over a missing-feature set; same weighting as possession."""
    return weighted_feature_score(missing, taxonomy)


def _score_map(profiles: ProfilesInput) -> dict[int, int]:
    """Normalize profiles to a stars -> sentiment score map (populated stars only)."""
    if isinstance(profiles, Mapping):
        return {int(s): int(v) for s, v in profiles.items()}
    return {p.stars: p.sentiment_score for p in profiles}


def sentiment_delta(
    profiles_a: ProfilesInput, profiles_b: ProfilesInput
) -> tuple[dict[int, int], int]:
    """Per-star sentiment differences (a minus b) and their sum.

    A star level with no profile contributes 0. The delta map always covers
    stars 1..5; net is its sum.
    """
    score_a, score_b = _score_map(profiles_a), _score_map(profiles_b)
    delta = {s: score_a.get(s, 0) - score_b.get(s, 0) for s in STAR_LEVELS}
    return delta, sum(delta.values())


def verdict(deficiency_a: float, deficiency_b: float, net: int) -> str:
    """Two-signal judgment with strict inequalities; any tie is inconclusive."""
    if deficiency_a < deficiency_b and net > 0:
        return FAVORED_A
    if deficiency_a > deficiency_b and net < 0:
        return FAVORED_B
    return INCONCLUSIVE


@dataclass(frozen=True)
class DisparityReport:
    """Full pairwise comparison output.

    The sentiment maps carry only populated star levels; an absent key is
    the flag that the restaurant has no reviews at that star (it counts as
    0 in the delta). ``delta`` always covers stars 1..5.
    """

    id_a: str
    id_b: str
    stars_a: float
    stars_b: float
    common: frozenset[str]
    missing_a: frozenset[str]
    missing_b: frozenset[str]
    deficiency_a: float
    deficiency_b: float
    sentiment_a: dict[int, int]
    sentiment_b: dict[int, int]
    delta: dict[int, int]
    net: int
    verdict: str

    def to_json_dict(self) -> dict:
        """JSON-ready dict with exactly the report's fields, in field order;
        sets sorted, star maps keyed by strings in star order."""
        return {
            **vars(self),
            "common": sorted(self.common),
            "missing_a": sorted(self.missing_a),
            "missing_b": sorted(self.missing_b),
            "sentiment_a": _string_keys(self.sentiment_a),
            "sentiment_b": _string_keys(self.sentiment_b),
            "delta": _string_keys(self.delta),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _string_keys(by_star: dict[int, int]) -> dict[str, int]:
    return {str(s): v for s, v in sorted(by_star.items())}


def build_disparity_report(
    a: BusinessRecord,
    b: BusinessRecord,
    profiles_a: ProfilesInput,
    profiles_b: ProfilesInput,
    taxonomy: FeatureTaxonomy = DEFAULT_TAXONOMY,
) -> DisparityReport:
    """Compose the full pairwise comparison of two businesses."""
    common, missing_a, missing_b = compare_features(a, b)
    score_a = _score_map(profiles_a)
    score_b = _score_map(profiles_b)
    delta, net = sentiment_delta(score_a, score_b)
    deficiency_a = weighted_deficiency(missing_a, taxonomy)
    deficiency_b = weighted_deficiency(missing_b, taxonomy)
    return DisparityReport(
        id_a=a.business_id,
        id_b=b.business_id,
        stars_a=a.overall_stars,
        stars_b=b.overall_stars,
        common=common,
        missing_a=missing_a,
        missing_b=missing_b,
        deficiency_a=deficiency_a,
        deficiency_b=deficiency_b,
        sentiment_a=score_a,
        sentiment_b=score_b,
        delta=delta,
        net=net,
        verdict=verdict(deficiency_a, deficiency_b, net),
    )


def _feature_block(label: str, names: frozenset[str]) -> str:
    listing = ", ".join(sorted(names)) if names else "(none)"
    return f"  {label} ({len(names)}): {listing}"


def render_text(report: DisparityReport) -> str:
    """Human-readable aligned-column rendering of a report."""
    lines = [
        "disparity report",
        f"  a: {report.id_a}  (overall stars {report.stars_a})",
        f"  b: {report.id_b}  (overall stars {report.stars_b})",
        "",
        "features",
        _feature_block("common", report.common),
        _feature_block("a lacks", report.missing_a),
        _feature_block("b lacks", report.missing_b),
        f"  weighted deficiency  a: {report.deficiency_a:.2f}  b: {report.deficiency_b:.2f}",
        "",
        "sentiment by star  (n/a = no reviews at that star)",
        "  star  score_a  score_b  delta",
    ]
    for s in STAR_LEVELS:
        score_a = str(report.sentiment_a[s]) if s in report.sentiment_a else "n/a"
        score_b = str(report.sentiment_b[s]) if s in report.sentiment_b else "n/a"
        lines.append(f"  {s:>4}  {score_a:>7}  {score_b:>7}  {report.delta[s]:>5}")
    lines.append(f"  net sentiment: {report.net}")
    lines.append("")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"
