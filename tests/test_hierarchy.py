import numpy as np
import pytest
from hypothesis import given, strategies as st

from pantryplan.distance import GeoPoint
from pantryplan.errors import SolveError
from pantryplan.hierarchy import (
    HierarchyParams,
    PlacementPlan,
    SolverOptions,
    allocate_pantry_counts,
    pantry_bank_distances,
    place_two_level,
    plan_from_dict,
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


# --- place_two_level -----------------------------------------------------------

def test_single_bank_equals_flat_solve():
    d = two_blob_matrix()
    params = HierarchyParams(k_banks=1, k_pantries_total=3, level2=SolverOptions(seed=5))
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
    with pytest.raises(SolveError):
        HierarchyParams(k_banks=1, k_pantries_total=1, allocation="equal_split")


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


# --- pantry_bank_distances ------------------------------------------------------

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
    per, total, mean = pantry_bank_distances(plan, d)
    assert per == [0.0] and total == 0.0 and mean == 0.0


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
    per, total, mean = pantry_bank_distances(plan, d)
    assert per == [1.0, 1.0, 0.0]  # read off the matrix
    assert total == 2.0
    assert mean == pytest.approx(2.0 / 3.0)


def test_mean_times_count_equals_sum():
    d = two_blob_matrix()
    plan = place_two_level(d, HierarchyParams(k_banks=2, k_pantries_total=4))
    per, total, mean = pantry_bank_distances(plan, d)
    assert mean * len(per) == pytest.approx(total, abs=1e-9)


# --- serialization ----------------------------------------------------------------

def households_for(d_size):
    return [
        Household(id=f"h{i}", location=GeoPoint(float(i % 90), float(i % 180)))
        for i in range(d_size)
    ]


def test_plan_json_round_trip():
    d = two_blob_matrix()
    plan = place_two_level(d, HierarchyParams(k_banks=2, k_pantries_total=4))
    data = plan_to_dict(plan, households_for(10))
    assert plan_from_dict(data) == plan


def test_plan_geojson_structure():
    d = two_blob_matrix()
    plan = place_two_level(d, HierarchyParams(k_banks=2, k_pantries_total=4))
    hh = households_for(10)
    geo = plan_to_geojson(plan, hh)
    assert geo["type"] == "FeatureCollection"
    roles = [f["properties"]["role"] for f in geo["features"]]
    assert roles.count("bank") == 2
    assert roles.count("pantry") == 4
    for f in geo["features"]:
        lon, lat = f["geometry"]["coordinates"]
        assert f["geometry"]["type"] == "Point"
        if f["properties"]["role"] == "pantry":
            assert f["properties"]["bank_id"] in {hh[b].id for b in plan.banks}
