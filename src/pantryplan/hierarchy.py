"""Two-level placement: banks over all households, pantries inside each
bank's cluster, pantry counts apportioned by cluster size.

Both levels run the same solver settings (the one swap rule, seed, epsilon
and a caller's max_passes cap); only k differs. Pantry counts are always
apportioned by largest remainder.

A plan is its sites: plan_of_sites derives its mappings and objectives from
the banks and pantries, for place_two_level and for evaluate's check. A
household goes to the globally nearest pantry, so one near a cluster
boundary may be served by a neighboring cluster's pantry; that matches how
household-to-pantry distance is reported.

A plan's record is plan_to_dict's: plan.json is that record, and
plan_to_geojson draws plan.geojson from it, so each site's Household is
resolved once. point_feature is the one GeoJSON Point, for plan.geojson and
evaluate's households.geojson.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .distance import as_floats
from .errors import SolveError, require_fields, require_int
from .kmedoids import DEFAULT_EPSILON, DEFAULT_MODE, MatrixLike, SolveParams, as_square_array, assign, solve


@dataclass(frozen=True)
class HierarchyParams:
    """Bank and pantry counts, and the solver settings both levels share;
    SolveParams checks the settings when place_two_level builds it."""

    k_banks: int
    k_pantries_total: int
    mode: str = DEFAULT_MODE
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    max_passes: Optional[int] = None

    def __post_init__(self):
        require_fields(self, require_int, SolveError, "k_banks", "k_pantries_total")
        if self.k_banks < 1 or self.k_pantries_total < 1:
            raise SolveError("k_banks and k_pantries_total must be positive")


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
    largest fractional remainders, ties to the lower cluster index. Quota i,
    total * size_i / s over the sum s of sizes, is split by exact integer
    division into its floor and a remainder over the shared denominator s,
    so remainders compare and tie exactly, on any host.
    Each size and the total pass through operator.index, so a numpy integer
    becomes a Python int and total * size cannot overflow.
    """
    sizes = [operator.index(size) for size in cluster_sizes]
    total = operator.index(total)
    if any(s < 1 for s in sizes):
        raise SolveError("cluster sizes must be positive")
    m = len(sizes)
    if total < m:
        raise SolveError(f"cannot place {total} pantries across {m} clusters (need >= {m})")
    if total > sum(sizes):
        raise SolveError(f"cannot place {total} pantries among {sum(sizes)} households")

    s = sum(sizes)
    quotas = [divmod(total * size, s) for size in sizes]  # (floor, remainder over s)
    counts = [max(1, q) for q, _ in quotas]  # q <= size, as total <= s
    remainders = [r for _, r in quotas]

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
    w = np.ones(n) if weights is None else as_floats(weights)

    # level 2 differs only in k and weights; solve is looked up in this
    # module on each call, level 1 first, which bench/tracer.py relies on
    level1_params = SolveParams(
        k=params.k_banks, weights=w, mode=params.mode, seed=params.seed, epsilon=params.epsilon,
        max_passes=params.max_passes,
    )
    level1 = solve(d, level1_params)
    banks = level1.medoids
    assignment = np.asarray(level1.assignment)

    clusters = [np.flatnonzero(assignment == b) for b in banks]
    counts = allocate_pantry_counts([len(c) for c in clusters], params.k_pantries_total)

    pantries: list[int] = []
    level2_passes: list[int] = []
    for members, k_c in zip(clusters, counts):
        sub = d[np.ix_(members, members)]
        local = solve(sub, replace(level1_params, k=k_c, weights=w[members]))
        level2_passes.append(local.passes)
        pantries.extend(int(members[i]) for i in local.medoids)

    return replace(plan_of_sites(d, banks, pantries, w), level1_passes=level1.passes, level2_passes=tuple(level2_passes))


def plan_of_sites(matrix: MatrixLike, banks: Sequence[int], pantries: Sequence[int], weights=None) -> PlacementPlan:
    """The plan with these sites and passes at 0: each pantry goes to its
    nearest bank, each household to its nearest pantry (ties to the lowest
    index), and each objective is what its assignment costs. assign is bound
    at import, so bench/tracer.py counts only the solver's calls."""
    to_bank, level1_objective = assign(matrix, banks, weights)
    to_pantry, level2_objective = assign(matrix, pantries, weights)
    to_bank = to_bank.tolist()
    return PlacementPlan(
        banks=tuple(banks),
        pantries=tuple(pantries),
        pantry_to_bank={p: to_bank[p] for p in pantries},
        household_to_pantry=tuple(to_pantry.tolist()),
        level1_objective=level1_objective,
        level2_objective=level2_objective,
    )


def plan_to_dict(plan: PlacementPlan, households) -> dict:
    """JSON-ready plan with ids and coordinates resolved from households:
    each bank's and pantry's Household is built once, so a HouseholdTable
    builds no other Household."""
    site = {i: households[i] for i in {*plan.banks, *plan.pantries}}

    def entry(i: int) -> dict:
        h = site[i]
        return {"index": i, "id": h.id, "lat": h.location.lat, "lon": h.location.lon}

    return {
        "banks": [entry(b) for b in plan.banks],
        "pantries": [{**entry(p), "bank_index": plan.pantry_to_bank[p]} for p in plan.pantries],
        "household_to_pantry": list(plan.household_to_pantry),
        "level1_objective_m": plan.level1_objective,
        "level2_objective_m": plan.level2_objective,
        "level1_passes": plan.level1_passes,
        "level2_passes": list(plan.level2_passes),
    }


def point_feature(lon: float, lat: float, properties: dict) -> dict:
    """A GeoJSON Point feature; a GeoJSON position puts longitude first."""
    return {"type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]}, "properties": properties}


def plan_to_geojson(record: dict) -> dict:
    """FeatureCollection of the bank and pantry points of plan_to_dict's
    record, for any standard map viewer."""
    bank_id = {b["index"]: b["id"] for b in record["banks"]}
    features = [point_feature(b["lon"], b["lat"], {"role": "bank", "id": b["id"]}) for b in record["banks"]]
    for p in record["pantries"]:
        properties = {"role": "pantry", "id": p["id"], "bank_id": bank_id[p["bank_index"]]}
        features.append(point_feature(p["lon"], p["lat"], properties))
    return {"type": "FeatureCollection", "features": features}
