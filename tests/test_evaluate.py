import csv
import io
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from pantryplan.distance import GeoPoint, ProviderSpec, great_circle
from pantryplan.errors import EvaluateError
from pantryplan.evaluate import (
    METERS_PER_MILE,
    EvaluationReport,
    FacilitySet,
    compare,
    households_geojson,
    nearest_facility_stats,
    penalty_from_distances,
    penalty_report,
    report_to_csv,
)
from pantryplan.hierarchy import PlacementPlan, plan_of_sites
from pantryplan.ingest import Household, HouseholdTable
from pantryplan.kmedoids import brute_force_solve

from conftest import household_matrix

GC = ProviderSpec(kind="great_circle")


def hh(lat, lon, i=0, city=None):
    return Household(id=f"h{i}", location=GeoPoint(lat, lon), city=city)


def facility_set(label, coords):
    return FacilitySet(label=label, points=tuple(GeoPoint(*c) for c in coords))


def compare_sets(candidate, baseline, households, groups=None):
    """The report evaluate writes for two facility sets, without a penalty."""
    cand_m, _, _ = nearest_facility_stats(households, candidate, GC)
    base_m, _, _ = nearest_facility_stats(households, baseline, GC)
    return EvaluationReport(groups=compare(cand_m, base_m, groups))


# --- nearest_facility_stats ---------------------------------------------------

def test_facility_at_every_household_gives_zeros():
    households = [hh(0, 0, 0), hh(1, 1, 1), hh(2, 2, 2)]
    fs = facility_set("own", [(0, 0), (1, 1), (2, 2)])
    per, avg, total = nearest_facility_stats(households, fs, GC)
    assert per == [0.0, 0.0, 0.0]
    assert avg == 0.0 and total == 0.0


def test_min_over_facilities():
    per, avg, total = nearest_facility_stats([hh(0, 0)], facility_set("f", [(0, 1), (0, 2)]), GC)
    expected = great_circle(GeoPoint(0, 0), GeoPoint(0, 1))
    assert per == [expected]
    assert avg == expected and total == expected


def test_row_minimum_below_every_facility():
    # evaluate reads each household's candidate distance as the matrix cell
    # at the pantry plan_of_sites assigns it: the row minimum over the pantries
    rng = np.random.default_rng(11)
    m = rng.uniform(0, 1e5, (8, 8))
    np.fill_diagonal(m, 0.0)
    pantries = (1, 3, 4, 6, 7)
    plan = plan_of_sites(m, (0,), pantries)
    per = m[range(8), plan.household_to_pantry].tolist()
    for i in range(8):
        assert all(per[i] <= m[i, j] for j in pantries)


def test_adding_a_facility_never_hurts():
    rng = np.random.default_rng(13)
    households = [hh(float(a), float(b), i) for i, (a, b) in enumerate(rng.uniform(0, 1, (12, 2)))]
    base_coords = [(0.5, 0.5), (0.9, 0.1)]
    small = facility_set("s", base_coords)
    large = facility_set("l", base_coords + [(0.2, 0.8)])
    per_small, _, _ = nearest_facility_stats(households, small, GC)
    per_large, _, _ = nearest_facility_stats(households, large, GC)
    assert all(b <= a for a, b in zip(per_small, per_large))


@pytest.mark.parametrize(
    "weights, message",
    [
        ([-1.0, 3.0], "weight 0 must be positive and finite, got -1.0"),
        ([math.nan, 1.0], "weight 0 must be positive and finite, got nan"),
        ([0.0, 0.0], "weight 0 must be positive and finite, got 0.0"),
        ([2.0, math.inf], "weight 1 must be positive and finite, got inf"),
        (np.array([1.0, -2.0]), "weight 1 must be positive and finite, got -2.0"),
    ],
)
def test_direct_weights_must_be_positive_and_finite(weights, message):
    # [-1, 3] gave a plausible mean, [nan, 1] a NaN one, [0, 0] a ZeroDivisionError
    households = [hh(0, 0.0, 0), hh(0, 1.0, 1)]
    with pytest.raises(EvaluateError, match=re.escape(message)):
        nearest_facility_stats(households, facility_set("f", [(0, 0.4)]), GC, weights=weights)


def test_household_wide_functions_read_a_tables_points():
    households = [hh(0, 0.0, 0, "a"), hh(0, 1.0, 1), hh(0, 2.5, 2, "b")]
    table = HouseholdTable.of(households)
    fs = facility_set("f", [(0, 0.4), (0, 2.0)])
    assert nearest_facility_stats(table, fs, GC) == nearest_facility_stats(households, fs, GC)
    assert households_geojson(table, [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == households_geojson(
        households, [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]
    )


# --- compare --------------------------------------------------------------------

def test_identical_sets_give_zero_saving():
    households = [hh(0, i * 0.1, i) for i in range(5)]
    fs = facility_set("same", [(0, 0.05), (0, 0.35)])
    report = compare_sets(fs, fs, households)
    overall = report.groups["overall"]
    assert overall.saving_mi == 0.0
    assert overall.saving_pct == 0.0
    assert overall.candidate_avg_mi == overall.baseline_avg_mi
    assert overall.household_count == 5


def test_paper_headline_arithmetic():
    # single household at precooked distances: averages 6.83 and 3.22 miles
    from pantryplan.evaluate import _group_stats

    g = _group_stats([3.22 * METERS_PER_MILE], [6.83 * METERS_PER_MILE])
    assert g.saving_mi == pytest.approx(3.61, abs=5e-3)
    assert g.saving_pct == pytest.approx(52.9, abs=0.05)


def test_city_groups_partition_households():
    households = [hh(0, 0.0, 0, "east"), hh(0, 0.1, 1, "east"), hh(0, 5.0, 2, "west")]
    cand = facility_set("c", [(0, 0.0), (0, 5.0)])
    base = facility_set("b", [(0, 1.0)])
    report = compare_sets(cand, base, households, groups=[h.city for h in households])
    assert set(report.groups) == {"overall", "east", "west"}
    assert report.groups["east"].household_count == 2
    assert report.groups["west"].household_count == 1
    assert report.groups["west"].saving_mi > 0


def test_compare_weighted_by_duplication_matches_direct_weights():
    # two households, the first twice as important
    pts = [hh(0, 0.0, 0), hh(0, 1.0, 1)]
    duplicated = [pts[0], pts[0], pts[1]]
    fs_c = facility_set("c", [(0, 0.2)])
    fs_b = facility_set("b", [(0, 0.7)])
    rep_dup = compare_sets(fs_c, fs_b, duplicated)
    d0c = great_circle(GeoPoint(0, 0), GeoPoint(0, 0.2))
    d1c = great_circle(GeoPoint(0, 1), GeoPoint(0, 0.2))
    d0b = great_circle(GeoPoint(0, 0), GeoPoint(0, 0.7))
    d1b = great_circle(GeoPoint(0, 1), GeoPoint(0, 0.7))
    # direct weighted mean with weights (2, 1), computed by hand
    cand_avg = (2 * d0c + d1c) / 3 / METERS_PER_MILE
    base_avg = (2 * d0b + d1b) / 3 / METERS_PER_MILE
    assert rep_dup.groups["overall"].candidate_avg_mi == pytest.approx(cand_avg, abs=1e-9)
    assert rep_dup.groups["overall"].baseline_avg_mi == pytest.approx(base_avg, abs=1e-9)


def test_synthetic_town_optimum_beats_corner_baseline():
    rng = np.random.default_rng(29)
    coords = rng.uniform(0, 0.5, (20, 2))
    households = [hh(float(a), float(b), i) for i, (a, b) in enumerate(coords)]
    pts = [h.location for h in households]
    d = np.array([[great_circle(a, b) for b in pts] for a in pts])
    optimum = brute_force_solve(d, 3)
    candidate = FacilitySet(label="opt", points=tuple(pts[m] for m in optimum.medoids))
    baseline = facility_set("corner", [(0.0, 0.0), (0.0, 0.01), (0.01, 0.0)])

    report = compare_sets(candidate, baseline, households)
    overall = report.groups["overall"]

    # independent recomputation with plain loops
    cand_hand = [min(great_circle(p, q) for q in candidate.points) for p in pts]
    base_hand = [min(great_circle(p, q) for q in baseline.points) for p in pts]
    saving_hand = (math.fsum(base_hand) - math.fsum(cand_hand)) / 20 / METERS_PER_MILE
    assert saving_hand > 0
    assert overall.saving_mi == pytest.approx(saving_hand, abs=1e-9)


def test_compare_rejects_mismatched_vectors():
    with pytest.raises(EvaluateError):
        compare([1.0, 2.0], [1.0])
    with pytest.raises(EvaluateError):
        compare([], [])
    with pytest.raises(EvaluateError, match="group labels"):
        compare([1.0, 2.0], [1.0, 2.0], groups=["a"])


# --- penalty ---------------------------------------------------------------------

def test_candidate_legs_come_from_the_plan_matrix():
    # a matrix at twice the great-circle distances, as a road network might be
    households = [hh(0, 0, 0), hh(0, 1, 1), hh(0, 2, 2)]
    plan = PlacementPlan(
        banks=(0,),
        pantries=(1, 2),
        pantry_to_bank={1: 0, 2: 0},
        household_to_pantry=(1, 1, 2),
        level1_objective=0.0,
        level2_objective=0.0,
    )
    road = 2.0 * household_matrix(households).values
    banks = FacilitySet(label="bb", points=(households[0].location,))
    pantries = FacilitySet(label="bp", points=(households[1].location, households[2].location))
    block = penalty_report(plan, road, banks, pantries, GC)
    assert block.candidate_total_mi == pytest.approx((road[1, 0] + road[2, 0]) / METERS_PER_MILE, rel=1e-12)
    assert block.total_mi == pytest.approx(block.baseline_total_mi, rel=1e-12)


def test_identical_plan_and_baseline_zero_penalty():
    households = [hh(0, 0, 0), hh(0, 1, 1), hh(0, 2, 2)]
    plan = PlacementPlan(
        banks=(0,),
        pantries=(1, 2),
        pantry_to_bank={1: 0, 2: 0},
        household_to_pantry=(1, 1, 2),
        level1_objective=0.0,
        level2_objective=0.0,
    )
    banks = FacilitySet(label="bb", points=(households[0].location,))
    pantries = FacilitySet(label="bp", points=(households[1].location, households[2].location))
    block = penalty_report(plan, household_matrix(households), banks, pantries, GC)
    assert block.per_pantry_avg_mi == pytest.approx(0.0, abs=1e-12)
    assert block.total_mi == pytest.approx(0.0, abs=1e-12)


def test_penalty_consistency_paper_indiana_numbers():
    # 176 pantries, 273.75 total penalty miles -> 1.56 average
    per = [273.75 / 176 * METERS_PER_MILE] * 176
    block = penalty_from_distances(per, [0.0] * 176)
    assert block.total_mi == pytest.approx(273.75, abs=5e-3)
    assert block.per_pantry_avg_mi == pytest.approx(1.56, abs=5e-3)
    assert block.per_pantry_avg_mi * block.pantry_count == pytest.approx(block.total_mi, abs=1e-6)


def test_penalty_hand_instance_two_banks_four_pantries():
    # candidate pantry->bank legs 2, 3, 4, 5 miles; baseline 1, 1, 2, 2
    cand = [x * METERS_PER_MILE for x in (2.0, 3.0, 4.0, 5.0)]
    base = [x * METERS_PER_MILE for x in (1.0, 1.0, 2.0, 2.0)]
    block = penalty_from_distances(cand, base)
    assert block.candidate_total_mi == pytest.approx(14.0)
    assert block.baseline_total_mi == pytest.approx(6.0)
    assert block.total_mi == pytest.approx(8.0)
    assert block.per_pantry_avg_mi == pytest.approx(14.0 / 4 - 6.0 / 4)


def test_baseline_pantries_attributed_to_nearest_bank():
    households = [hh(0, 0, 0), hh(0, 1, 1)]
    plan = PlacementPlan(
        banks=(0,),
        pantries=(1,),
        pantry_to_bank={1: 0},
        household_to_pantry=(1, 1),
        level1_objective=0.0,
        level2_objective=0.0,
    )
    banks = facility_set("bb", [(0, 0.0), (0, 0.9)])
    pantries = facility_set("bp", [(0, 1.0)])
    block = penalty_report(plan, household_matrix(households), banks, pantries, GC)
    # baseline pantry at lon 1.0 uses the bank at lon 0.9, not 0.0
    expected_base = great_circle(GeoPoint(0, 1.0), GeoPoint(0, 0.9)) / METERS_PER_MILE
    assert block.baseline_total_mi == pytest.approx(expected_base, abs=1e-9)


# --- report output ------------------------------------------------------------------

def test_report_invariants_and_csv_rounding():
    households = [hh(0, i * 0.2, i, "core" if i < 3 else None) for i in range(5)]
    cand = facility_set("c", [(0, 0.1), (0, 0.7)])
    base = facility_set("b", [(0, 0.9)])
    report = compare_sets(cand, base, households, groups=[h.city for h in households])
    for g in report.groups.values():
        assert g.saving_mi == pytest.approx(g.baseline_avg_mi - g.candidate_avg_mi, abs=1e-12)
        if g.baseline_avg_mi > 0:
            assert g.saving_pct == pytest.approx(100 * g.saving_mi / g.baseline_avg_mi, abs=0.05)
        assert g.candidate_total_mi == pytest.approx(g.candidate_avg_mi * g.household_count, abs=1e-6)

    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("group,household_count,")
    assert lines[-1].startswith("overall,")
    cells = lines[-1].split(",")
    assert all("." in c and len(c.split(".")[1]) == 2 for c in cells[2:4])

    data = asdict(report)
    assert set(data["groups"]) == {"overall", "core"}
    assert data["penalty"] is None


@pytest.mark.parametrize("label", ["Los Angeles, CA", 'x"y', "two\nlines"])
def test_report_csv_reads_back_a_label_holding_a_comma_a_quote_or_a_line_break(label):
    report = EvaluationReport(groups=compare([1609.344, 0.0], [3218.688, 0.0], groups=[label, None]), penalty=None)
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert [len(row) for row in rows] == [8, 8, 8]
    assert [row[0] for row in rows] == ["group", label, "overall"]
    assert rows[1][1:] == ["1", "1.00", "2.00", "1.00", "50.0", "1.00", "2.00"]


def test_report_csv_writes_a_plain_label_as_before():
    report = EvaluationReport(groups=compare([1609.344, 0.0], [3218.688, 0.0], groups=["core", None]), penalty=None)
    assert report_to_csv(report) == (
        "group,household_count,candidate_avg_mi,baseline_avg_mi,saving_mi,saving_pct,candidate_total_mi,"
        "baseline_total_mi\n"
        "core,1,1.00,2.00,1.00,50.0,1.00,2.00\n"
        "overall,2,0.50,1.00,0.50,50.0,1.00,2.00\n"
    )


def test_compare_refuses_a_group_labelled_overall():
    # the label would replace the figures over all three households
    with pytest.raises(EvaluateError, match="^group label 'overall' is reserved for the figures over all households$"):
        compare([1.0, 2.0, 100.0], [1.0, 2.0, 3.0], groups=["overall", None, None])


def test_reports_are_bit_stable_across_runs():
    households = [hh(0, i * 0.31, i) for i in range(9)]
    cand = facility_set("c", [(0, 0.4), (0, 2.0)])
    base = facility_set("b", [(0, 1.3)])
    a = asdict(compare_sets(cand, base, households))
    b = asdict(compare_sets(cand, base, households))
    assert a == b


def test_direct_weights_agree_with_duplication():
    pts = [hh(0, 0.0, 0), hh(0, 1.0, 1), hh(0, 2.5, 2)]
    weights = [3, 1, 2]
    duplicated = [p for p, w in zip(pts, weights) for _ in range(w)]
    fs = facility_set("f", [(0, 0.4), (0, 2.0)])
    _, avg_dup, total_dup = nearest_facility_stats(duplicated, fs, GC)
    _, avg_w, total_w = nearest_facility_stats(pts, fs, GC, weights=[float(w) for w in weights])
    assert total_w == pytest.approx(total_dup, abs=1e-9)
    assert avg_w == pytest.approx(avg_dup, abs=1e-12)


def test_households_geojson_labels():
    households = [hh(0, 0, 0), hh(0, 1, 1)]
    geo = households_geojson(households, [100.0, 900.0], [500.0, 500.0])
    labels = [f["properties"]["better"] for f in geo["features"]]
    assert labels == ["candidate", "baseline"]
    assert geo["features"][0]["geometry"]["coordinates"] == [0.0, 0.0]
