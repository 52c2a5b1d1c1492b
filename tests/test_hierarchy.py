from dataclasses import replace
from fractions import Fraction
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pantryplan.distance import GeoPoint, ProviderSpec
from pantryplan.errors import SolveError
from pantryplan.evaluate import METERS_PER_MILE, FacilitySet, penalty_report
from pantryplan.hierarchy import (
    HierarchyParams,
    PlacementPlan,
    allocate_pantry_counts,
    place_two_level,
    plan_of_sites,
    plan_to_dict,
    plan_to_geojson,
)
from pantryplan.ingest import Household
from pantryplan.kmedoids import SolveParams, brute_force_solve, solve

from conftest import line_matrix, planar_matrix


def two_blob_matrix(seed=17, per_blob=5, spread=5.0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), spread, (per_blob, 2))
    b = rng.normal((1000, 1000), spread, (per_blob, 2))
    pts = np.vstack([a, b])
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    return d


# --- allocate_pantry_counts ---------------------------------------------------

@pytest.mark.parametrize(
    "sizes,total,expected",
    [
        ([10, 10], 4, [2, 2]),
        ([30, 10], 4, [3, 1]),
        ([7, 5, 3], 5, [2, 2, 1]),  # quotas 7/3, 5/3, 1: largest remainder 2/3
        ([100, 1, 1], 3, [1, 1, 1]),  # min-1 bumps force a decrement elsewhere
        ([1, 9], 6, [1, 5]),  # saturation redistributes the excess
        ([5], 3, [3]),
    ],
)
def test_allocation_cases(sizes, total, expected):
    assert allocate_pantry_counts(sizes, total) == expected


def test_allocation_remainder_tie_goes_to_lower_index():
    # quotas 1.5 / 1.5 / 1.0; one leftover unit; tie on remainders -> cluster 0
    assert allocate_pantry_counts([3, 3, 2], 4) == [2, 1, 1]


def test_allocation_infeasible_totals():
    with pytest.raises(SolveError):
        allocate_pantry_counts([4, 4], 1)  # fewer than clusters
    with pytest.raises(SolveError):
        allocate_pantry_counts([2, 2], 5)  # more than households


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
    st.integers(0, 100),
)
def test_allocation_properties(sizes, extra):
    total = min(len(sizes) + extra, sum(sizes))
    counts = allocate_pantry_counts(sizes, total)
    assert sum(counts) == total
    assert all(1 <= c <= s for c, s in zip(counts, sizes))


def fraction_allocation(cluster_sizes, total):
    """allocate_pantry_counts as it was with exact Fraction quotas: the
    reference the integer quotas must match."""
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


def outcome(allocate, sizes, total):
    try:
        return [int(c) for c in allocate(sizes, total)]
    except SolveError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    # small sizes make remainder ties and the min-1 bumps common, large
    # ones push total * size far past 2**31; 0 and -1 are infeasible
    st.lists(st.one_of(st.integers(-1, 12), st.integers(1, 10**6)), max_size=50),
    st.one_of(st.integers(0, 60), st.floats(0, 1.05)),
    st.booleans(),
)
def test_integer_allocation_matches_the_fraction_reference(sizes, total, numpy_sizes):
    # a float total is a fraction of the feasible range and a bit beyond it
    if isinstance(total, float):
        total = int(total * sum(max(s, 0) for s in sizes))
    if numpy_sizes:
        sizes = np.asarray(sizes, dtype=np.int64)
    assert outcome(allocate_pantry_counts, sizes, total) == outcome(fraction_allocation, sizes, total)


# --- place_two_level -----------------------------------------------------------

def test_single_bank_equals_flat_solve():
    d = two_blob_matrix()
    params = HierarchyParams(k_banks=1, k_pantries_total=3, seed=5)
    plan = place_two_level(d, params)
    flat = solve(d, SolveParams(k=3, seed=5))
    assert tuple(sorted(plan.pantries)) == flat.medoids
    assert plan.level2_objective == pytest.approx(flat.objective, abs=1e-9)
    assert len(plan.banks) == 1


def test_two_blobs_two_pantries_each():
    d = two_blob_matrix()
    params = HierarchyParams(k_banks=2, k_pantries_total=4)
    plan = place_two_level(d, params)

    blob = lambda i: 0 if i < 5 else 1
    assert sorted(blob(b) for b in plan.banks) == [0, 1]
    assert sorted(blob(p) for p in plan.pantries) == [0, 0, 1, 1]
    for p in plan.pantries:
        assert blob(plan.pantry_to_bank[p]) == blob(p)

    # per-blob oracle: the pantries inside each blob are that blob's optimum
    for lo, hi in ((0, 5), (5, 10)):
        members = np.arange(lo, hi)
        oracle = brute_force_solve(d[np.ix_(members, members)], 2)
        chosen = sorted(p - lo for p in plan.pantries if lo <= p < hi)
        assert tuple(chosen) == oracle.medoids


def test_every_household_a_pantry_gives_zero_objective():
    d = two_blob_matrix()
    params = HierarchyParams(k_banks=2, k_pantries_total=10)
    plan = place_two_level(d, params)
    assert sorted(plan.pantries) == list(range(10))
    assert plan.level2_objective == 0.0
    assert plan.household_to_pantry == tuple(range(10))


def test_household_to_pantry_is_globally_nearest():
    rng = np.random.default_rng(97)
    d = planar_matrix(rng, 24)
    params = HierarchyParams(k_banks=3, k_pantries_total=6)
    plan = place_two_level(d, params)
    pantries = sorted(plan.pantries)
    for i, p in enumerate(plan.household_to_pantry):
        best = min(d[i, q] for q in pantries)
        assert d[i, p] == best
        if i not in pantries:
            assert p == min(q for q in pantries if d[i, q] == best)
    assert len(plan.pantries) == 6
    assert set(plan.pantry_to_bank.values()) <= set(plan.banks)


def test_weights_flow_into_both_levels():
    d = two_blob_matrix()
    w = np.ones(10)
    w[7] = 50.0  # heavy household drags its blob's pantry onto itself
    params = HierarchyParams(k_banks=2, k_pantries_total=2)
    plan = place_two_level(d, params, weights=w)
    assert 7 in plan.pantries


def test_hierarchy_params_validation():
    with pytest.raises(SolveError):
        HierarchyParams(k_banks=0, k_pantries_total=1)


@pytest.mark.parametrize("field", ["k_banks", "k_pantries_total"])
@pytest.mark.parametrize("bad", ["2", True, 1.5])
def test_hierarchy_params_reject_non_integer_counts(field, bad):
    counts = {"k_banks": 1, "k_pantries_total": 2, field: bad}
    with pytest.raises(SolveError, match=f"{field} must be an integer"):
        HierarchyParams(**counts)


def test_infeasible_allocation_propagates():
    d = two_blob_matrix()
    with pytest.raises(SolveError):
        place_two_level(d, HierarchyParams(k_banks=2, k_pantries_total=1))


# --- pantry-to-bank legs ----------------------------------------------------------

def hand_penalty(plan, d):
    """penalty_report of plan on d against one baseline pantry at its bank,
    so the baseline legs are 0 and the block holds the candidate's."""
    at_origin = FacilitySet(label="at-origin", points=(GeoPoint(0.0, 0.0),))
    return penalty_report(plan, d, at_origin, at_origin, ProviderSpec(kind="great_circle"))


def test_colocated_pantry_bank_distance_zero():
    d = line_matrix([0.0, 1.0, 5.0, 6.0])
    plan = PlacementPlan(
        banks=(0,),
        pantries=(0,),
        pantry_to_bank={0: 0},
        household_to_pantry=(0, 0, 0, 0),
        level1_objective=12.0,
        level2_objective=12.0,
    )
    block = hand_penalty(plan, d)
    assert block.candidate_total_mi == 0.0 and block.candidate_avg_mi == 0.0 and block.pantry_count == 1


def test_pantry_bank_distances_hand_instance():
    d = line_matrix([0.0, 1.0, 5.0, 6.0])
    plan = PlacementPlan(
        banks=(0, 3),
        pantries=(1, 2, 3),
        pantry_to_bank={1: 0, 2: 3, 3: 3},
        household_to_pantry=(1, 1, 2, 3),
        level1_objective=0.0,
        level2_objective=0.0,
    )
    block = hand_penalty(plan, d)
    # legs 1, 1 and 0 read off the matrix
    assert block.candidate_total_mi == 2.0 / METERS_PER_MILE
    assert block.candidate_avg_mi == 2.0 / METERS_PER_MILE / 3
    assert block.pantry_count == 3


# --- plan_of_sites ------------------------------------------------------------------

@st.composite
def placements(draw):
    """A matrix with duplicate points, rounded ties or directed distances,
    its weights or None, and HierarchyParams."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = planar_matrix(rng, n)
    if draw(st.booleans()):  # directed: d[i, j] != d[j, i]
        d = d * rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
    if draw(st.booleans()):  # coarse rounding makes many distances tie
        d = np.round(d / 250.0)
    for _ in range(draw(st.integers(0, 3))):
        # point j becomes a copy of point i: same row, same column, 0 apart
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d[j, :] = d[i, :]
        d[:, j] = d[:, i]
        d[i, j] = d[j, i] = 0.0
    w = draw(st.sampled_from([None, "real", "integer"]))
    if w == "real":
        w = rng.uniform(0.1, 5.0, size=n)
    elif w == "integer":
        w = rng.integers(1, 6, size=n).astype(np.float64)
    k_banks = draw(st.integers(1, n))
    params = HierarchyParams(
        k_banks=k_banks,
        k_pantries_total=draw(st.integers(k_banks, n)),
        seed=draw(st.integers(0, 1000)),
        max_passes=100,
    )
    return d, w, params


@settings(max_examples=200, deadline=None)
@given(placements())
def test_plan_of_sites_is_the_placed_plan(instance):
    d, w, params = instance
    try:
        plan = place_two_level(d, params, w)
    except SolveError as exc:  # a cluster's pantries outnumber its distinct points
        assert " distinct of " in str(exc)
        return
    derived = plan_of_sites(d, plan.banks, plan.pantries, w)
    assert replace(plan, level1_passes=0, level2_passes=()) == derived
    assert list(derived.pantry_to_bank) == list(plan.pantries)
    for got, want in ((derived.level1_objective, plan.level1_objective),
                      (derived.level2_objective, plan.level2_objective)):
        assert got.hex() == want.hex()


@pytest.mark.parametrize("banks, pantries, index", [([-1], [-2, 0], -1), ([0], [1, 4], 4)])
def test_plan_of_sites_refuses_a_site_out_of_range(banks, pantries, index):
    # -1 and -2 would read as rows 3 and 2 of the line
    d = line_matrix([0.0, 1.0, 5.0, 6.0])
    with pytest.raises(SolveError, match=rf"^medoid index {index} out of range for 4 points$"):
        plan_of_sites(d, banks, pantries)


# --- serialization ----------------------------------------------------------------

def households_for(d_size):
    return [
        Household(id=f"h{i}", location=GeoPoint(float(i % 90), float(i % 180)))
        for i in range(d_size)
    ]


def test_plan_geojson_structure():
    d = two_blob_matrix()
    plan = place_two_level(d, HierarchyParams(k_banks=2, k_pantries_total=4))
    hh = households_for(10)
    geo = plan_to_geojson(plan_to_dict(plan, hh))
    assert geo["type"] == "FeatureCollection"
    roles = [f["properties"]["role"] for f in geo["features"]]
    assert roles.count("bank") == 2
    assert roles.count("pantry") == 4
    for f in geo["features"]:
        lon, lat = f["geometry"]["coordinates"]
        assert f["geometry"]["type"] == "Point"
        if f["properties"]["role"] == "pantry":
            assert f["properties"]["bank_id"] in {hh[b].id for b in plan.banks}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_place_two_level_refuses_a_non_finite_weight(value):
    d = line_matrix([0.0, 1.0, 5.0, 6.0])
    with pytest.raises(SolveError, match=f"weight 2 is {value}"):
        place_two_level(d, HierarchyParams(k_banks=1, k_pantries_total=2), [1.0, 1.0, value, 1.0])
