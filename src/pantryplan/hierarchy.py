"""Two-level placement: banks over all households, pantries inside each
bank's cluster, pantry counts apportioned by cluster size.

Level-2 quality is always measured against the globally nearest pantry, so a
household near a cluster boundary may be served by a neighboring cluster's
pantry; that matches how household-to-pantry distance is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor
from typing import Optional, Sequence

import numpy as np

from .errors import SolveError
from .kmedoids import MatrixLike, SolveParams, as_square_array, require_int, solve


@dataclass(frozen=True)
class SolverOptions:
    """Per-level solver knobs; k is supplied by the hierarchy."""

    mode: str = "global_swap"
    seed: int = 0
    epsilon: float = 1e-6
    max_passes: Optional[int] = None


@dataclass(frozen=True)
class HierarchyParams:
    k_banks: int
    k_pantries_total: int
    allocation: str = "proportional_largest_remainder"
    level1: SolverOptions = field(default_factory=SolverOptions)
    level2: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        require_int("k_banks", self.k_banks)
        require_int("k_pantries_total", self.k_pantries_total)
        if self.k_banks < 1 or self.k_pantries_total < 1:
            raise SolveError("k_banks and k_pantries_total must be positive")
        if self.allocation != "proportional_largest_remainder":
            raise SolveError(f"unknown allocation policy {self.allocation!r}")


@dataclass(frozen=True)
class PlacementPlan:
    banks: tuple[int, ...]
    pantries: tuple[int, ...]
    pantry_to_bank: dict[int, int]
    household_to_pantry: tuple[int, ...]
    level1_objective: float
    level2_objective: float
    level1_passes: int = 0
    level2_passes: tuple[int, ...] = ()


def allocate_pantry_counts(cluster_sizes: Sequence[int], total: int) -> list[int]:
    """Largest-remainder apportionment of `total` proportional to sizes.

    Every cluster gets at least 1 and at most its size; leftovers go to the
    largest fractional remainders, ties to the lower cluster index. Exact
    Fraction arithmetic keeps remainder ties portable.
    """
    sizes = list(cluster_sizes)
    if any(s < 1 for s in sizes):
        raise SolveError("cluster sizes must be positive")
    m = len(sizes)
    if total < m:
        raise SolveError(f"cannot place {total} pantries across {m} clusters (need >= {m})")
    if total > sum(sizes):
        raise SolveError(f"cannot place {total} pantries among {sum(sizes)} households")

    s = sum(sizes)
    quotas = [Fraction(total * size, s) for size in sizes]
    counts = [min(max(1, floor(q)), size) for q, size in zip(quotas, sizes)]
    remainders = [q - floor(q) for q in quotas]

    inc_order = sorted(range(m), key=lambda i: (-remainders[i], i))
    dec_order = sorted(range(m), key=lambda i: (remainders[i], i))
    diff = total - sum(counts)
    while diff > 0:
        for i in inc_order:
            if diff == 0:
                break
            if counts[i] < sizes[i]:
                counts[i] += 1
                diff -= 1
    while diff < 0:
        for i in dec_order:
            if diff == 0:
                break
            if counts[i] > 1:
                counts[i] -= 1
                diff += 1
    return counts


def place_two_level(matrix: MatrixLike, params: HierarchyParams, weights=None) -> PlacementPlan:
    """Run the bank-level solve, then a pantry-level solve per bank cluster."""
    d = as_square_array(matrix)
    n = d.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)

    level1 = solve(
        d,
        SolveParams(
            k=params.k_banks,
            weights=w,
            mode=params.level1.mode,
            seed=params.level1.seed,
            epsilon=params.level1.epsilon,
            max_passes=params.level1.max_passes,
        ),
    )
    banks = list(level1.medoids)
    assignment = np.asarray(level1.assignment)

    clusters = [np.flatnonzero(assignment == b) for b in banks]
    counts = allocate_pantry_counts([len(c) for c in clusters], params.k_pantries_total)

    pantries: list[int] = []
    pantry_to_bank: dict[int, int] = {}
    level2_passes: list[int] = []
    for bank, members, k_c in zip(banks, clusters, counts):
        sub = d[np.ix_(members, members)]
        local = solve(
            sub,
            SolveParams(
                k=k_c,
                weights=w[members],
                mode=params.level2.mode,
                seed=params.level2.seed,
                epsilon=params.level2.epsilon,
                max_passes=params.level2.max_passes,
            ),
        )
        level2_passes.append(local.passes)
        for local_idx in local.medoids:
            g = int(members[local_idx])
            pantries.append(g)
            pantry_to_bank[g] = bank

    # households go to the globally nearest pantry, not cluster-restricted;
    # ties to the lowest pantry index, pantries serve themselves
    pantry_arr = np.asarray(sorted(pantries))
    choice = np.argmin(d[:, pantry_arr], axis=1)
    household_to_pantry = pantry_arr[choice]
    household_to_pantry[pantry_arr] = pantry_arr
    level2_objective = float(np.dot(w, d[np.arange(n), household_to_pantry]))

    return PlacementPlan(
        banks=tuple(banks),
        pantries=tuple(int(p) for p in pantries),
        pantry_to_bank=pantry_to_bank,
        household_to_pantry=tuple(int(x) for x in household_to_pantry),
        level1_objective=level1.objective,
        level2_objective=level2_objective,
        level1_passes=level1.passes,
        level2_passes=tuple(level2_passes),
    )


def pantry_bank_distances(plan: PlacementPlan, matrix: MatrixLike) -> tuple[list[float], float, float]:
    """Distance from each pantry to its bank, with sum and mean, in meters."""
    d = as_square_array(matrix)
    per_pantry = [float(d[p, plan.pantry_to_bank[p]]) for p in plan.pantries]
    total = float(sum(per_pantry))
    mean = total / len(per_pantry) if per_pantry else 0.0
    return per_pantry, total, mean


def plan_to_dict(plan: PlacementPlan, households) -> dict:
    """JSON-ready plan with ids and coordinates resolved from households."""
    return {
        "banks": [
            {"index": b, "id": households[b].id, "lat": households[b].location.lat, "lon": households[b].location.lon}
            for b in plan.banks
        ],
        "pantries": [
            {
                "index": p,
                "id": households[p].id,
                "lat": households[p].location.lat,
                "lon": households[p].location.lon,
                "bank_index": plan.pantry_to_bank[p],
            }
            for p in plan.pantries
        ],
        "household_to_pantry": list(plan.household_to_pantry),
        "level1_objective_m": plan.level1_objective,
        "level2_objective_m": plan.level2_objective,
        "level1_passes": plan.level1_passes,
        "level2_passes": list(plan.level2_passes),
    }


def plan_from_dict(data: dict) -> PlacementPlan:
    pantry_to_bank = {p["index"]: p["bank_index"] for p in data["pantries"]}
    return PlacementPlan(
        banks=tuple(b["index"] for b in data["banks"]),
        pantries=tuple(p["index"] for p in data["pantries"]),
        pantry_to_bank=pantry_to_bank,
        household_to_pantry=tuple(data["household_to_pantry"]),
        level1_objective=data["level1_objective_m"],
        level2_objective=data["level2_objective_m"],
        level1_passes=data.get("level1_passes", 0),
        level2_passes=tuple(data.get("level2_passes", ())),
    )


def plan_to_geojson(plan: PlacementPlan, households) -> dict:
    """FeatureCollection of bank/pantry points for any standard map viewer."""
    features = []
    for b in plan.banks:
        h = households[b]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [h.location.lon, h.location.lat]},
                "properties": {"role": "bank", "id": h.id},
            }
        )
    for p in plan.pantries:
        h = households[p]
        bank = households[plan.pantry_to_bank[p]]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [h.location.lon, h.location.lat]},
                "properties": {"role": "pantry", "id": h.id, "bank_id": bank.id},
            }
        )
    return {"type": "FeatureCollection", "features": features}
