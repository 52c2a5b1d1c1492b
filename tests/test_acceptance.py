"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in captured output on failure.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pantryplan.cli import main
from pantryplan.distance import (
    DistanceMatrix,
    GeoPoint,
    ProviderSpec,
    build_matrix,
    great_circle,
    load_matrix,
    save_matrix,
)
from pantryplan.evaluate import (
    METERS_PER_MILE,
    FacilitySet,
    compare,
    nearest_facility_stats,
    penalty_report,
)
from pantryplan.hierarchy import HierarchyParams, PlacementPlan, place_two_level
from pantryplan.ingest import Household, compute_weight, load_prepared
from pantryplan.kmedoids import SolveParams, assign, brute_force_solve, solve
from pantryplan.rng import SplitMix64

from conftest import MockTableTransport, household_matrix, planar_matrix

GC = ProviderSpec(kind="great_circle")


def overall_saving(candidate, baseline, households):
    """Overall comparison of two facility sets, as evaluate reports it."""
    cand_m, _, _ = nearest_facility_stats(households, candidate, GC)
    base_m, _, _ = nearest_facility_stats(households, baseline, GC)
    return compare(cand_m, base_m)["overall"]


# measured 189/200 on the frozen instance family; the floor leaves headroom
# for platform-level floating point drift without hiding a real regression
ORACLE_MATCH_FLOOR = 185


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {n} {label}: PASS")

        return run

    return wrap


@criterion(1, "oracle suite (200 instances)")
def test_criterion_1_oracle_suite():
    start = time.monotonic()
    matched = 0
    for t in range(200):
        rng = np.random.default_rng(5000 + t)
        n = int(rng.integers(6, 13))
        k = int(rng.integers(1, 4))
        d = planar_matrix(rng, n)
        c = solve(d, SolveParams(k=k, seed=11))
        oracle = brute_force_solve(d, k)
        assert c.objective >= oracle.objective - 1e-9
        if abs(c.objective - oracle.objective) <= 1e-9:
            matched += 1
        # single-swap local optimality, checked exhaustively
        for out in c.medoids:
            for inn in range(n):
                if inn in c.medoids:
                    continue
                _, trial = assign(d, sorted(set(c.medoids) - {out} | {inn}))
                assert trial >= c.objective - 1e-6
    elapsed = time.monotonic() - start
    assert matched >= ORACLE_MATCH_FLOOR, f"optimum matched on only {matched}/200"
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


@criterion(2, "weighted == duplicated (50 instances)")
def test_criterion_2_weighted_equals_duplicated():
    start = time.monotonic()
    for t in range(50):
        rng = np.random.default_rng(t)
        n = int(rng.integers(6, 11))
        k = int(rng.integers(1, 4))
        d = planar_matrix(rng, n)
        w = rng.integers(1, 6, size=n)
        weighted = solve(d, SolveParams(k=k, weights=w.astype(float), seed=7))
        origin = [i for i, wi in enumerate(w) for _ in range(wi)]
        expanded = d[np.ix_(origin, origin)]
        duplicated = solve(expanded, SolveParams(k=k, seed=7))
        assert abs(weighted.objective - duplicated.objective) <= 1e-6
        assert tuple(sorted({origin[m] for m in duplicated.medoids})) == weighted.medoids
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"weighted/duplicated suite took {elapsed:.1f}s"


def equator_point_at_miles(miles: float) -> GeoPoint:
    # on the equator the great-circle distance is exactly R * radians(dlon)
    return GeoPoint(0.0, math.degrees(miles * METERS_PER_MILE / 6_371_000.0))


@criterion(3, "paper arithmetic (savings and penalties)")
def test_criterion_3_paper_arithmetic():
    # averages 6.83 and 3.22 miles -> saving 3.61 miles, 52.9%
    households = [Household(id="h0", location=GeoPoint(0, 0))]
    candidate = FacilitySet(label="candidate", points=(equator_point_at_miles(3.22),))
    baseline = FacilitySet(label="baseline", points=(equator_point_at_miles(6.83),))
    overall = overall_saving(candidate, baseline, households)
    assert overall.candidate_avg_mi == pytest.approx(3.22, abs=1e-6)
    assert overall.baseline_avg_mi == pytest.approx(6.83, abs=1e-6)
    assert overall.saving_mi == pytest.approx(3.61, abs=5e-3)
    assert overall.saving_pct == pytest.approx(52.9, abs=0.05)

    # 57 pantries, 571.21 total penalty miles -> 10.02 per pantry
    block = _penalty_scenario(pantries=57, total_miles=571.21)
    assert block.total_mi == pytest.approx(571.21, abs=5e-3)
    assert block.per_pantry_avg_mi == pytest.approx(10.02, abs=5e-3)

    # 176 pantries, 273.75 total penalty miles -> 1.56 per pantry
    block = _penalty_scenario(pantries=176, total_miles=273.75)
    assert block.total_mi == pytest.approx(273.75, abs=5e-3)
    assert block.per_pantry_avg_mi == pytest.approx(1.56, abs=5e-3)


def _penalty_scenario(pantries: int, total_miles: float):
    """Candidate pantries each a fixed hop from their bank; baseline pantries
    sit on their bank, so the whole candidate total is penalty."""
    bank = Household(id="bank", location=GeoPoint(0, 0))
    hop = equator_point_at_miles(total_miles / pantries)
    households = [bank] + [Household(id=f"p{i}", location=hop) for i in range(pantries)]
    plan = PlacementPlan(
        banks=(0,),
        pantries=tuple(range(1, pantries + 1)),
        pantry_to_bank={i: 0 for i in range(1, pantries + 1)},
        household_to_pantry=(1,) * (pantries + 1),
        level1_objective=0.0,
        level2_objective=0.0,
    )
    baseline_banks = FacilitySet(label="bb", points=(bank.location,))
    baseline_pantries = FacilitySet(label="bp", points=(bank.location,) * pantries)
    return penalty_report(plan, household_matrix(households), baseline_banks, baseline_pantries, GC)


@criterion(4, "weight formula bound")
def test_criterion_4_weight_formula():
    assert compute_weight(40000) == 1.25
    rng = SplitMix64(404)
    for _ in range(10_000):
        income = (rng.next_u64() % 4_000_000) / 100.0 + 0.01  # (0, 40000]
        assert income <= 40000.01
        assert compute_weight(min(income, 40000.0)) >= 1.25


@criterion(5, "distance layer (oracles, chunking, cache)")
def test_criterion_5_distance_layer(tmp_path):
    # hand oracles, 0.1% tolerance
    assert great_circle(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(111_195, rel=1e-3)
    assert great_circle(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(20_015_087, rel=1e-3)

    # chunking invariance on a mock table service
    pts = [GeoPoint(34.05, -118.24), GeoPoint(34.1, -118.3), GeoPoint(34.2, -118.1),
           GeoPoint(33.9, -118.5), GeoPoint(34.0, -118.0)]
    matrices = []
    for chunk in (1000, 2, 100):  # one tile / minimal tiles / default
        spec = ProviderSpec(kind="table_api", base_url="http://mock.test", chunk_size=chunk)
        matrices.append(build_matrix(spec, pts, pts, transport=MockTableTransport()).values)
    assert np.array_equal(matrices[0], matrices[1])
    assert np.array_equal(matrices[0], matrices[2])

    # DMAT1 round trip, bit-exact
    rng = np.random.default_rng(55)
    src = [GeoPoint(float(a), float(b)) for a, b in rng.uniform(-60, 60, (4, 2))]
    dst = [GeoPoint(float(a), float(b)) for a, b in rng.uniform(-60, 60, (3, 2))]
    m = DistanceMatrix(src, dst, rng.uniform(0, 1e6, (4, 3)), "table:mock")
    path = tmp_path / "cache.dmat"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.values.tobytes() == m.values.tobytes()
    assert back == m


def _run_pipeline(tmp_path: Path, tag: str) -> Path:
    out_dir = tmp_path / f"out_{tag}"
    cfg = {
        "seed": 606,
        "out_dir": str(out_dir),
        "dataset": {
            "path": str(tmp_path / "synth.csv"),
            "schema": {"lat": "lat", "lon": "lon", "income": "income", "id": "id", "city": "city"},
        },
        "ingest": {"income_cap": 1e12, "sample_size": 500, "weighting_mode": "none"},
        "hierarchy": {"k_banks": 3, "k_pantries_total": 12},
        "baselines": {
            "banks": str(tmp_path / "baseline_banks.csv"),
            "pantries": str(tmp_path / "baseline_pantries.csv"),
            "schema": {"lat": "lat", "lon": "lon"},
        },
    }
    cfg_path = tmp_path / f"config_{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    c = str(cfg_path)
    assert main(["--config", c, "synth", "--clusters", "3", "--points", "200",
                 "--output", str(tmp_path / "synth.csv")]) == 0
    assert main(["--config", c, "ingest"]) == 0
    assert main(["--config", c, "--force", "matrix"]) == 0
    assert main(["--config", c, "place"]) == 0
    assert main(["--config", c, "evaluate"]) == 0
    return out_dir


@criterion(6, "two-level pipeline sanity (500 households, 3 blobs)")
def test_criterion_6_pipeline(tmp_path):
    # random 12-facility baseline written before the first run
    from pantryplan.synth import SynthParams, generate

    raw = generate(SynthParams(clusters=3, points_per_cluster=200, seed=606))

    def write_facilities(path, points):
        path.write_text("lat,lon\n" + "\n".join(f"{p.lat!r},{p.lon!r}" for p in points) + "\n")

    rng = np.random.default_rng(1)
    baseline_idx = rng.choice(len(raw), size=12, replace=False)
    write_facilities(tmp_path / "baseline_pantries.csv", [raw[i].location for i in baseline_idx])
    bank_idx = rng.choice(len(raw), size=3, replace=False)
    write_facilities(tmp_path / "baseline_banks.csv", [raw[i].location for i in bank_idx])

    start = time.monotonic()
    out_dir = _run_pipeline(tmp_path, "a")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    households = load_prepared(out_dir / "prepared.csv")
    assert len(households) == 500

    plan = json.loads((out_dir / "plan.json").read_text())
    bank_blobs = {next(h.city for h in households if h.id == b["id"]) for b in plan["banks"]}
    assert bank_blobs == {"blob0", "blob1", "blob2"}

    # candidate beats the mean of 20 seeded random 12-facility placements
    report = json.loads((out_dir / "report.json").read_text())
    candidate_avg = report["groups"]["overall"]["candidate_avg_mi"]
    matrix = load_matrix(out_dir / "matrix.dmat")
    random_avgs = []
    for s in range(20):
        picks = np.random.default_rng(s).choice(len(households), size=12, replace=False)
        per = matrix.values[:, sorted(picks)].min(axis=1)
        random_avgs.append(float(per.mean()) / METERS_PER_MILE)
    assert candidate_avg < np.mean(random_avgs)

    # byte-reproducible rerun of the full chain into the same directory
    outputs = ["prepared.csv", "matrix.dmat", "plan.json", "plan.geojson",
               "report.json", "report.csv", "households.geojson"]
    before = {name: (out_dir / name).read_bytes() for name in outputs}
    _run_pipeline(tmp_path, "a")
    for name in outputs:
        assert (out_dir / name).read_bytes() == before[name], f"{name} not reproducible"


@criterion(7, "degenerate cases")
def test_criterion_7_degenerate_cases():
    rng = np.random.default_rng(77)
    d = planar_matrix(rng, 9)

    # k = n: objective 0, every point its own medoid
    c = solve(d, SolveParams(k=9))
    assert c.objective == 0.0
    assert c.medoids == tuple(range(9))

    # k_banks = 1: two-level equals the flat solve
    plan = place_two_level(d, HierarchyParams(k_banks=1, k_pantries_total=3))
    flat = solve(d, SolveParams(k=3))
    assert tuple(sorted(plan.pantries)) == flat.medoids
    assert plan.level2_objective == pytest.approx(flat.objective, abs=1e-9)

    # baseline = candidate: zero savings, zero penalty
    households = [Household(id=str(i), location=GeoPoint(float(i), float(i))) for i in range(6)]
    fs = FacilitySet(label="same", points=(households[1].location, households[4].location))
    overall = overall_saving(fs, fs, households)
    assert overall.saving_mi == 0.0 and overall.saving_pct == 0.0

    plan = PlacementPlan(
        banks=(0,),
        pantries=(1, 4),
        pantry_to_bank={1: 0, 4: 0},
        household_to_pantry=(1, 1, 1, 4, 4, 4),
        level1_objective=0.0,
        level2_objective=0.0,
    )
    banks = FacilitySet(label="bb", points=(households[0].location,))
    block = penalty_report(plan, household_matrix(households), banks, fs, GC)
    assert block.per_pantry_avg_mi == pytest.approx(0.0, abs=1e-9)
    assert block.total_mi == pytest.approx(0.0, abs=1e-9)
