"""Candidate-vs-baseline facility comparisons: household-to-nearest-pantry
distance statistics, savings, and pantry-to-bank penalty.

Each distance is evaluated once. Candidate pantries and banks are
households, so their distances are cells of the households x households
matrix that placement solved on: a household's is the cell at its pantry, a
pantry's the cell at its bank. Only the baseline rectangles (households x
baseline pantries, baseline pantries x baseline banks) come from the
distance provider, and of them only each row's minimum is used. For the
great-circle provider only those row minima are computed
(distance.nearest_great_circle, about one exact cell per distinct row); a
table provider builds the rectangles. Each household's nearest-facility
distance per set is computed once and feeds every report.

Distances stay in meters until this module's reports, which convert to miles
(1609.344 m). Averages are plain means over the household list as given;
weighting is realized upstream by duplication, and a direct-weights mode
exists only as a cross-check and must agree for integer weights. Totals use
compensated summation in fixed index order so reports never wobble between
runs.

The household-wide functions, nearest_facility_stats and households_geojson,
take a Sequence[Household]; given an ingest.HouseholdTable, as the loaders
return, they read its points column and build no Household.

Each report figure is named once: a GroupStats or PenaltyBlock field is
named as its report.json key, and report.json is dataclasses.asdict of the
EvaluationReport.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distance import GeoPoint, ProviderSpec, as_floats, build_matrix, nearest_great_circle, weight_fault
from .errors import EvaluateError
from .hierarchy import PlacementPlan, point_feature
from .ingest import HouseholdTable
from .kmedoids import MatrixLike, as_square_array

METERS_PER_MILE = 1609.344
OVERALL = "overall"  # the group of all households


@dataclass(frozen=True)
class FacilitySet:
    label: str
    points: tuple[GeoPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise EvaluateError(f"facility set {self.label!r} is empty")


@dataclass(frozen=True)
class GroupStats:
    """Per-group comparison figures, in miles but for the percentage and
    the count."""

    candidate_avg_mi: float
    baseline_avg_mi: float
    saving_mi: float
    saving_pct: float
    candidate_total_mi: float
    baseline_total_mi: float
    household_count: int


@dataclass(frozen=True)
class PenaltyBlock:
    """Pantry-to-bank penalty of the candidate plan vs the baseline, miles.

    Positive means the candidate's pantry-bank legs are longer.
    """

    per_pantry_avg_mi: float
    total_mi: float
    candidate_avg_mi: float
    candidate_total_mi: float
    baseline_avg_mi: float
    baseline_total_mi: float
    pantry_count: int


@dataclass(frozen=True)
class EvaluationReport:
    groups: dict[str, GroupStats]
    penalty: Optional[PenaltyBlock] = None


def _nearest(spec: ProviderSpec, sources, destinations, max_in_flight: int) -> np.ndarray:
    """Each source's provider distance to its nearest destination, meters;
    a table provider fetches at most max_in_flight tiles at once."""
    if spec.kind == "great_circle":
        return nearest_great_circle(sources, destinations, spec.earth_radius)
    return build_matrix(spec, sources, destinations, max_in_flight=max_in_flight).values.min(axis=1)


def nearest_facility_stats(households, facilities: FacilitySet, provider: ProviderSpec, weights=None, *, max_in_flight=4):
    """Per-household provider distance to the closest facility, mean and
    total, meters; a table provider fetches at most max_in_flight tiles at
    once. A HouseholdTable is read by its points column. The mean is plain
    over the household list; weighting normally arrives via duplication.
    Passing weights instead computes the direct weighted mean, which must
    agree with duplication for integer weights; each weight must be
    positive and finite.
    """
    if not len(households):
        raise EvaluateError("no households to evaluate")
    if weights is not None:
        if len(weights) != len(households):
            raise EvaluateError("weights do not match households")
        if (i := weight_fault(w := as_floats(weights))) is not None:
            raise EvaluateError(f"weight {i} must be positive and finite, got {float(w[i])!r}")
    per_household = _nearest(provider, HouseholdTable.of(households).points, facilities.points, max_in_flight).tolist()
    if weights is None:
        total = math.fsum(per_household)
        return per_household, total / len(per_household), total
    total = math.fsum(w * x for w, x in zip(weights, per_household))
    return per_household, total / math.fsum(weights), total


def _group_stats(cand_m: Sequence[float], base_m: Sequence[float]) -> GroupStats:
    count = len(cand_m)
    cand_total = math.fsum(cand_m) / METERS_PER_MILE
    base_total = math.fsum(base_m) / METERS_PER_MILE
    cand_avg = cand_total / count
    base_avg = base_total / count
    saving = base_avg - cand_avg
    pct = 100.0 * saving / base_avg if base_avg > 0 else 0.0
    return GroupStats(
        candidate_avg_mi=cand_avg,
        baseline_avg_mi=base_avg,
        saving_mi=saving,
        saving_pct=pct,
        candidate_total_mi=cand_total,
        baseline_total_mi=base_total,
        household_count=count,
    )


def compare(
    candidate_m: Sequence[float],
    baseline_m: Sequence[float],
    groups: Optional[Sequence[Optional[str]]] = None,
) -> dict[str, GroupStats]:
    """Savings statistics from each household's nearest-candidate and
    nearest-baseline meters, overall and per group label (None: no group).
    The label "overall" names the figures over all households, so no group
    may carry it."""
    if not len(candidate_m) or len(candidate_m) != len(baseline_m):
        raise EvaluateError("candidate and baseline distances must cover the same, nonempty households")
    if groups is not None and len(groups) != len(candidate_m):
        raise EvaluateError("group labels do not match households")
    if groups is not None and OVERALL in groups:
        raise EvaluateError(f"group label {OVERALL!r} is reserved for the figures over all households")
    out = {OVERALL: _group_stats(candidate_m, baseline_m)}
    if groups is not None:
        for label in sorted({g for g in groups if g is not None}):
            idx = [i for i, g in enumerate(groups) if g == label]
            out[label] = _group_stats([candidate_m[i] for i in idx], [baseline_m[i] for i in idx])
    return out


def penalty_from_distances(candidate_m: Sequence[float], baseline_m: Sequence[float]) -> PenaltyBlock:
    """Penalty block from per-pantry pantry-to-bank meters of both sides."""
    if not candidate_m or not baseline_m:
        raise EvaluateError("penalty needs at least one pantry on each side")
    cand_total = math.fsum(candidate_m) / METERS_PER_MILE
    base_total = math.fsum(baseline_m) / METERS_PER_MILE
    cand_avg = cand_total / len(candidate_m)
    base_avg = base_total / len(baseline_m)
    return PenaltyBlock(
        per_pantry_avg_mi=cand_avg - base_avg,
        total_mi=cand_total - base_total,
        candidate_avg_mi=cand_avg,
        candidate_total_mi=cand_total,
        baseline_avg_mi=base_avg,
        baseline_total_mi=base_total,
        pantry_count=len(candidate_m),
    )


def penalty_report(
    plan: PlacementPlan,
    matrix: MatrixLike,
    baseline_banks: FacilitySet,
    baseline_pantries: FacilitySet,
    provider: ProviderSpec,
    *,
    max_in_flight: int = 4,
) -> PenaltyBlock:
    """Candidate pantry-to-assigned-bank distances, read from the matrix the
    plan was solved on, against baseline pantry-to-nearest-bank distances
    from the provider (a table provider fetching at most max_in_flight tiles
    at once)."""
    d = as_square_array(matrix)
    candidate_m = [float(d[p, plan.pantry_to_bank[p]]) for p in plan.pantries]
    base = _nearest(provider, baseline_pantries.points, baseline_banks.points, max_in_flight)
    return penalty_from_distances(candidate_m, [float(x) for x in base])


def report_to_csv(report: EvaluationReport) -> str:
    """Display-precision CSV: miles to 2 decimals, percents to 1. A group
    label holding a comma, a quote or a line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group", "household_count", "candidate_avg_mi", "baseline_avg_mi", "saving_mi", "saving_pct",
                     "candidate_total_mi", "baseline_total_mi"])
    labels = [k for k in report.groups if k != OVERALL] + [OVERALL]
    for label in labels:
        g = report.groups[label]
        writer.writerow([
            label, g.household_count, f"{g.candidate_avg_mi:.2f}", f"{g.baseline_avg_mi:.2f}", f"{g.saving_mi:.2f}",
            f"{g.saving_pct:.1f}", f"{g.candidate_total_mi:.2f}", f"{g.baseline_total_mi:.2f}",
        ])
    return out.getvalue()


def households_geojson(households, candidate_m: Sequence[float], baseline_m: Sequence[float]) -> dict:
    """Households as points tagged with both nearest-facility distances and
    which set serves them better, for map rendering. A HouseholdTable is
    read by its points column."""
    features = []
    for p, c, b in zip(HouseholdTable.of(households).points, candidate_m, baseline_m):
        better = "tie" if c == b else ("candidate" if c < b else "baseline")
        properties = {
            "nearest_candidate_mi": c / METERS_PER_MILE,
            "nearest_baseline_mi": b / METERS_PER_MILE,
            "better": better,
        }
        features.append(point_feature(p.lon, p.lat, properties))
    return {"type": "FeatureCollection", "features": features}
