import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pantryplan.distance as distance
import pantryplan.evaluate as evaluate
from pantryplan.cli import main
from pantryplan.distance import FixtureTransport, GeoPoint, ProviderSpec, build_matrix, load_matrix, save_matrix
from pantryplan.hierarchy import HierarchyParams, place_two_level, plan_from_dict
from pantryplan.ingest import ColumnSchema, Household, load_households, load_prepared, write_households_csv
from pantryplan.kmedoids import SolveParams, solve

from conftest import load_table_fixtures


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
        "dataset": {
            "path": str(tmp_path / "synth.csv"),
            "schema": {"lat": "lat", "lon": "lon", "income": "income", "id": "id", "city": "city"},
        },
        "hierarchy": {"k_banks": 2, "k_pantries_total": 4},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def run(args):
    return main([str(a) for a in args])


def pipeline_through_place(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    assert run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 10,
                "--output", tmp_path / "synth.csv"]) == 0
    assert run(["--config", cfg_path, "ingest"]) == 0
    assert run(["--config", cfg_path, "matrix"]) == 0
    assert run(["--config", cfg_path, "place"]) == 0
    return cfg_path, Path(cfg["out_dir"])


# --- synth ----------------------------------------------------------------------

def test_synth_row_count_and_determinism(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 5, "--output", out_a]) == 0
    assert run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 5, "--output", out_b]) == 0
    rows = load_households(out_a, ColumnSchema(lat="lat", lon="lon", income="income", id="id", city="city"))
    assert len(rows) == 10
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("seed", ["3", True, 1.5])
def test_synth_with_a_seed_that_is_not_an_integer_exits_2(tmp_path, capsys, seed):
    cfg_path, _ = write_config(tmp_path, seed=seed)
    capsys.readouterr()
    assert run(["--config", cfg_path, "synth", "--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be an integer" in err
    assert not (tmp_path / "x.csv").exists()


# --- ingest ---------------------------------------------------------------------

def test_ingest_pass_through_when_unweighted(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 5, "--output", tmp_path / "synth.csv"])
    assert run(["--config", cfg_path, "ingest"]) == 0
    prepared = load_prepared(Path(cfg["out_dir"]) / "prepared.csv")
    original = load_households(
        tmp_path / "synth.csv",
        ColumnSchema(lat="lat", lon="lon", income="income", id="id", city="city"),
    )
    kept = [h for h in original if h.income is None or h.income <= 40000]
    assert [h.id for h in prepared] == [h.id for h in kept]
    assert all(h.weight == 1.0 for h in prepared)


def test_ingest_duplicate_mode_row_count(tmp_path, data_dir):
    cfg_path, cfg = write_config(
        tmp_path,
        dataset={
            "path": str(data_dir / "ca_blocks.csv"),
            "schema": {"lat": "latitude", "lon": "longitude", "income": "median_income", "id": "block_id"},
        },
        ingest={"income_cap": 40000, "sample_size": "all", "weighting_mode": "duplicate",
                "weight_cap": 50, "weight_numerator": 5},
    )
    assert run(["--config", cfg_path, "ingest"]) == 0
    prepared = load_prepared(Path(cfg["out_dir"]) / "prepared.csv")
    # fixture leaves 6 under the cap; every weight rounds to >= 1 copy
    assert len({h.origin_id for h in prepared}) == 6
    assert len(prepared) >= 6


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"seed": "3", "ingest": {"sample_size": 8}}, "seed"),
        ({"seed": True}, "seed"),
        ({"ingest": {"income_cap": "40000"}}, "income_cap"),
        ({"ingest": {"weight_cap": "50"}}, "weight_cap"),
        ({"ingest": {"weight_numerator": None}}, "weight_numerator"),
    ],
)
def test_ingest_with_mistyped_config_value_exits_2(tmp_path, capsys, overrides, field):
    cfg_path, _ = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 12, "--output", tmp_path / "synth.csv"])
    cfg_path, _ = write_config(tmp_path, **overrides)
    capsys.readouterr()
    assert run(["--config", cfg_path, "ingest"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err


def test_ingest_bad_path_exits_2(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, dataset={"path": str(tmp_path / "missing.csv"), "schema": {}})
    assert run(["--config", cfg_path, "ingest"]) == 2
    assert "no such file" in capsys.readouterr().err


# --- matrix ---------------------------------------------------------------------

def test_matrix_equals_library_great_circle(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 5, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    assert run(["--config", cfg_path, "matrix"]) == 0
    saved = load_matrix(Path(cfg["out_dir"]) / "matrix.dmat")
    households = load_prepared(Path(cfg["out_dir"]) / "prepared.csv")
    pts = [h.location for h in households]
    direct = build_matrix(ProviderSpec(kind="great_circle"), pts, pts)
    assert np.array_equal(saved.values, direct.values)


def test_matrix_rerun_is_cache_hit(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 5, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    run(["--config", cfg_path, "matrix"])
    first = (Path(cfg["out_dir"]) / "matrix.dmat").read_bytes()
    capsys.readouterr()
    assert run(["--config", cfg_path, "matrix"]) == 0
    assert "cache hit" in capsys.readouterr().out
    assert (Path(cfg["out_dir"]) / "matrix.dmat").read_bytes() == first


def test_matrix_force_rebuilds(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 4, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    run(["--config", cfg_path, "matrix"])
    capsys.readouterr()
    assert run(["--config", cfg_path, "--force", "matrix"]) == 0
    assert "cache hit" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "provider, field",
    [
        ({"kind": "table_api", "base_url": 5}, "base_url"),
        ({"kind": "great_circle", "earth_radius": "big"}, "earth_radius"),
        ({"kind": "great_circle", "earth_radius": -1.0}, "earth_radius"),
    ],
)
def test_matrix_with_mistyped_provider_field_exits_3(tmp_path, capsys, provider, field):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 4, "--output", tmp_path / "synth.csv"])
    assert run(["--config", cfg_path, "ingest"]) == 0
    cfg_path, _ = write_config(tmp_path, provider=provider)
    capsys.readouterr()
    assert run(["--config", cfg_path, "matrix"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert not (Path(cfg["out_dir"]) / "matrix.dmat").exists()


def resample(tmp_path, seed_a, seed_b):
    """Ingest at seed_a, build the matrix and place, then ingest other
    households of the same count at seed_b, leaving the matrix and plan of
    the first."""
    cfg_path, cfg = write_config(tmp_path, ingest={"sample_size": 8})
    run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 12, "--output", tmp_path / "synth.csv"])
    for stage in ("ingest", "matrix", "place"):
        assert run(["--config", cfg_path, "--seed", seed_a, stage]) == 0
    assert run(["--config", cfg_path, "--seed", seed_b, "ingest"]) == 0
    out_dir = Path(cfg["out_dir"])
    assert load_matrix(out_dir / "matrix.dmat").sources != tuple(
        h.location for h in load_prepared(out_dir / "prepared.csv"))
    return cfg_path, out_dir


def test_matrix_of_other_households_same_count_is_rebuilt(tmp_path, capsys):
    cfg_path, out_dir = resample(tmp_path, 1, 2)
    capsys.readouterr()
    assert run(["--config", cfg_path, "--seed", 2, "matrix"]) == 0
    out = capsys.readouterr().out
    assert "cache hit" not in out and "rebuilding" in out and "differ from the prepared households" in out
    pts = [h.location for h in load_prepared(out_dir / "prepared.csv")]
    assert load_matrix(out_dir / "matrix.dmat").values.tobytes() == build_matrix(ProviderSpec(), pts, pts).values.tobytes()


def test_matrix_from_another_provider_is_rebuilt(tmp_path, capsys):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 4, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    run(["--config", cfg_path, "matrix"])
    cfg_path, _ = write_config(tmp_path, provider={"kind": "great_circle", "earth_radius": 1.0})
    capsys.readouterr()
    assert run(["--config", cfg_path, "matrix"]) == 0
    assert "rebuilding" in capsys.readouterr().out
    saved = load_matrix(Path(cfg["out_dir"]) / "matrix.dmat")
    assert saved.provider_tag == "great_circle:1.0" and saved.values.max() < 4.0


@pytest.mark.parametrize("stage, code", [("place", 4), ("evaluate", 5)])
def test_stage_with_matrix_of_other_households_same_count_exits(tmp_path, capsys, stage, code):
    cfg_path, out_dir = resample(tmp_path, 1, 2)
    if stage == "evaluate":
        cfg_path = evaluate_config(tmp_path, out_dir)
    capsys.readouterr()
    assert run(["--config", cfg_path, "--seed", 2, stage]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir / "matrix.dmat") in err


def test_evaluate_plan_of_other_households_same_count_exits_5(tmp_path, capsys):
    cfg_path, out_dir = resample(tmp_path, 1, 2)
    assert run(["--config", cfg_path, "--seed", 2, "matrix"]) == 0  # rebuilt for the new households
    cfg_path = evaluate_config(tmp_path, out_dir)
    capsys.readouterr()
    assert run(["--config", cfg_path, "--seed", 2, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir / "plan.json") in err and "prepared household" in err
    assert not (out_dir / "report.json").exists()


def test_matrix_without_prepared_exits_3(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert run(["--config", cfg_path, "matrix"]) == 3


def test_matrix_from_recorded_fixture(tmp_path, monkeypatch):
    fixtures = load_table_fixtures()
    monkeypatch.setattr(distance, "RequestsTransport", lambda: FixtureTransport(fixtures))
    pts = [GeoPoint(34.0522, -118.2437), GeoPoint(34.0622, -118.2537), GeoPoint(34.0722, -118.2637)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    households = [Household(id=str(i), location=p) for i, p in enumerate(pts)]
    write_households_csv(households, out_dir / "prepared.csv")
    cfg_path, cfg = write_config(
        tmp_path,
        provider={"kind": "table_api", "base_url": "http://osrm.test", "chunk_size": 100},
        out_dir=str(out_dir),
    )
    assert run(["--config", cfg_path, "matrix"]) == 0
    saved = load_matrix(out_dir / "matrix.dmat")
    url = next(iter(k for k in fixtures if "34.0522" in k))
    assert np.array_equal(saved.values, np.asarray(fixtures[url]["distances"], dtype=float))


# --- place ----------------------------------------------------------------------

def test_place_matches_library_hierarchy(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    plan_data = json.loads((out_dir / "plan.json").read_text())
    plan = plan_from_dict(plan_data)

    matrix = load_matrix(out_dir / "matrix.dmat")
    households = load_prepared(out_dir / "prepared.csv")
    expected = place_two_level(
        matrix,
        HierarchyParams(k_banks=2, k_pantries_total=4, seed=5),
        [h.weight for h in households],
    )
    assert plan == expected
    assert plan_data["meta"]["seed"] == 5
    assert "config_hash" in plan_data["meta"]


def test_place_single_bank_equals_flat_solve(tmp_path):
    cfg_path, cfg = write_config(tmp_path, hierarchy={"k_banks": 1, "k_pantries_total": 3})
    run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 8, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    run(["--config", cfg_path, "matrix"])
    assert run(["--config", cfg_path, "place"]) == 0
    out_dir = Path(cfg["out_dir"])
    plan = plan_from_dict(json.loads((out_dir / "plan.json").read_text()))
    matrix = load_matrix(out_dir / "matrix.dmat")
    flat = solve(matrix, SolveParams(k=3, seed=5))
    assert tuple(sorted(plan.pantries)) == flat.medoids


def test_place_rerun_byte_identical(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    first = (out_dir / "plan.json").read_bytes()
    first_geo = (out_dir / "plan.geojson").read_bytes()
    assert run(["--config", cfg_path, "place"]) == 0
    assert (out_dir / "plan.json").read_bytes() == first
    assert (out_dir / "plan.geojson").read_bytes() == first_geo


def test_place_without_matrix_exits_4(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert run(["--config", cfg_path, "place"]) == 4


def test_place_with_string_k_banks_exits_4(tmp_path, capsys):
    pipeline_through_place(tmp_path)
    cfg_path, _ = write_config(tmp_path, hierarchy={"k_banks": "2", "k_pantries_total": 4})
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k_banks" in err


@pytest.mark.parametrize(
    "hierarchy, field",
    [
        ({"max_passes": "3"}, "max_passes"),
        ({"epsilon": "x"}, "epsilon"),
        ({"epsilon": True}, "epsilon"),
    ],
)
def test_place_with_mistyped_solver_option_exits_4(tmp_path, capsys, hierarchy, field):
    pipeline_through_place(tmp_path)
    cfg_path, _ = write_config(tmp_path, hierarchy={"k_banks": 2, "k_pantries_total": 4, **hierarchy})
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("seed", ["3", 1.5, True])
def test_place_with_mistyped_seed_exits_4(tmp_path, capsys, seed):
    pipeline_through_place(tmp_path)
    cfg_path, _ = write_config(tmp_path, seed=seed)
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be an integer" in err


# --- evaluate ---------------------------------------------------------------------

def baseline_from_plan(out_dir, tmp_path):
    """Baseline files copying the candidate: pantries at plan pantry sites."""
    plan_data = json.loads((out_dir / "plan.json").read_text())
    pantry_csv = tmp_path / "baseline_pantries.csv"
    bank_csv = tmp_path / "baseline_banks.csv"
    pantry_csv.write_text(
        "lat,lon\n" + "\n".join(f"{p['lat']!r},{p['lon']!r}" for p in plan_data["pantries"]) + "\n"
    )
    bank_csv.write_text(
        "lat,lon\n" + "\n".join(f"{b['lat']!r},{b['lon']!r}" for b in plan_data["banks"]) + "\n"
    )
    return bank_csv, pantry_csv


def test_evaluate_identical_baseline_zero_savings(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    bank_csv, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, cfg = write_config(
        tmp_path,
        baselines={"banks": str(bank_csv), "pantries": str(pantry_csv), "schema": {"lat": "lat", "lon": "lon"}},
    )
    assert run(["--config", cfg_path, "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    overall = report["groups"]["overall"]
    assert overall["saving_mi"] == pytest.approx(0.0, abs=1e-9)
    assert overall["saving_pct"] == pytest.approx(0.0, abs=1e-9)
    assert report["penalty"]["total_mi"] == pytest.approx(0.0, abs=1e-9)
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "households.geojson").exists()


def test_evaluate_groups_by_city_tags(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    bank_csv, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": None, "pantries": str(pantry_csv), "schema": {"lat": "lat", "lon": "lon"}},
    )
    assert run(["--config", cfg_path, "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["groups"]) == {"overall", "blob0", "blob1"}
    assert report["penalty"] is None


def test_evaluate_without_plan_exits_5(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert run(["--config", cfg_path, "evaluate"]) == 5


@pytest.mark.parametrize("damage", ["truncated", "missing_key"])
def test_evaluate_damaged_plan_exits_5(tmp_path, capsys, damage):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    _, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": None, "pantries": str(pantry_csv), "schema": {"lat": "lat", "lon": "lon"}},
    )
    plan_path = out_dir / "plan.json"
    text = plan_path.read_text()
    if damage == "truncated":
        plan_path.write_text(text[: len(text) // 2])
    else:
        data = json.loads(text)
        del data["banks"]
        plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plan_path) in err


def test_evaluate_city_bounding_boxes_override_tags(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    _, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    households = load_prepared(out_dir / "prepared.csv")
    lats = [h.location.lat for h in households]
    lons = [h.location.lon for h in households]
    boxes = {
        "south": [min(lats) - 1, min(lons) - 1, (min(lats) + max(lats)) / 2, max(lons) + 1],
        "north": [(min(lats) + max(lats)) / 2, min(lons) - 1, max(lats) + 1, max(lons) + 1],
    }
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": None, "pantries": str(pantry_csv), "schema": {"lat": "lat", "lon": "lon"}},
        cities=boxes,
    )
    assert run(["--config", cfg_path, "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["groups"]) <= {"overall", "south", "north"}
    counted = sum(g["household_count"] for name, g in report["groups"].items() if name != "overall")
    assert counted == report["groups"]["overall"]["household_count"]


@pytest.mark.parametrize(
    "cities, key",
    [
        ({"a": [1, 2, 3]}, "cities.a"),
        ({"a": [0, 0, 1, 1], "b": [0, 0, 1, "x"]}, "cities.b"),
        ({"a": [0, 0, 1, True]}, "cities.a"),
        ({"a": {"lat_min": 0}}, "cities.a"),
        ([[0, 0, 1, 1]], "cities"),
    ],
)
def test_evaluate_with_a_malformed_city_box_exits_2(tmp_path, capsys, cities, key):
    _, out_dir = pipeline_through_place(tmp_path)
    _, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": None, "pantries": str(pantry_csv), "schema": {"lat": "lat", "lon": "lon"}},
        cities=cities,
    )
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key {key} must be" in err
    assert not (out_dir / "report.json").exists()


def evaluate_config(tmp_path, out_dir, banks=True):
    bank_csv, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": str(bank_csv) if banks else None, "pantries": str(pantry_csv),
                   "schema": {"lat": "lat", "lon": "lon"}},
    )
    return cfg_path


def test_evaluate_without_matrix_exits_5(tmp_path, capsys):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    (out_dir / "matrix.dmat").unlink()
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir / "matrix.dmat") in err


def test_evaluate_with_matrix_of_other_households_exits_5(tmp_path, capsys):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    pts = [h.location for h in load_prepared(out_dir / "prepared.csv")][:-1]
    save_matrix(build_matrix(ProviderSpec(), pts, pts), out_dir / "matrix.dmat")
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"matrix is {len(pts)} points" in err


def set_first_pantry(value):
    def damage(data):
        data["pantries"][0]["index"] = value
    return damage


def set_first_bank_index(value):
    def damage(data):
        data["pantries"][0]["bank_index"] = value
    return damage


def point_bank_index_at_a_pantry(data):
    banks = {b["index"] for b in data["banks"]}
    data["pantries"][0]["bank_index"] = next(p["index"] for p in data["pantries"] if p["index"] not in banks)


def repeat_first_pantry(data):
    data["pantries"].append(dict(data["pantries"][0]))


def drop_last_household(data):
    data["household_to_pantry"].pop()


def assign_household_to_a_non_pantry(data):
    pantries = {p["index"] for p in data["pantries"]}
    data["household_to_pantry"][0] = next(i for i in range(len(data["household_to_pantry"])) if i not in pantries)


@pytest.mark.parametrize(
    "damage",
    [
        set_first_pantry(10000),
        set_first_pantry(-1),
        set_first_pantry(True),
        set_first_pantry(1.0),
        set_first_bank_index(10000),
        set_first_bank_index("0"),
        point_bank_index_at_a_pantry,
        repeat_first_pantry,
        drop_last_household,
        assign_household_to_a_non_pantry,
    ],
    ids=["pantry_10000", "pantry_-1", "pantry_bool", "pantry_float", "bank_index_10000", "bank_index_str",
         "bank_index_not_a_bank", "pantry_twice", "short_assignment", "assignment_not_a_pantry"],
)
def test_evaluate_plan_with_bad_indices_exits_5(tmp_path, capsys, damage):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    plan_path = out_dir / "plan.json"
    data = json.loads(plan_path.read_text())
    damage(data)
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plan_path) in err
    assert not (out_dir / "report.json").exists()


def test_place_with_unparseable_weight_exits_2(tmp_path, capsys):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    prepared = out_dir / "prepared.csv"
    lines = prepared.read_text().splitlines(keepends=True)
    assert lines[2].count(",1.0,") == 1  # line 2 of the CSV proper: the first household row
    lines[2] = lines[2].replace(",1.0,", ",heavy,")
    prepared.write_text("".join(lines))
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2: cannot parse weight from 'heavy'" in err


def test_evaluate_with_string_chunk_size_exits_3(tmp_path, capsys):
    _, out_dir = pipeline_through_place(tmp_path)
    bank_csv, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, _ = write_config(
        tmp_path,
        provider={"kind": "great_circle", "base_url": None, "chunk_size": "100"},
        baselines={"banks": str(bank_csv), "pantries": str(pantry_csv), "schema": {"lat": "lat", "lon": "lon"}},
    )
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "chunk_size must be an integer" in err


def test_evaluate_builds_only_the_baseline_rectangles(tmp_path, monkeypatch):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    built = []

    def counting(spec, sources, destinations, *args, **kwargs):
        built.append((len(sources), len(destinations)))
        return build_matrix(spec, sources, destinations, *args, **kwargs)

    monkeypatch.setattr(evaluate, "build_matrix", counting)
    monkeypatch.setattr(distance, "build_matrix", counting)
    assert run(["--config", cfg_path, "evaluate"]) == 0
    households = len(load_prepared(out_dir / "prepared.csv"))
    # households x baseline pantries, baseline pantries x baseline banks
    assert built == [(households, 4), (4, 2)]


def test_households_geojson_averages_to_report(tmp_path):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    assert run(["--config", cfg_path, "evaluate"]) == 0
    overall = json.loads((out_dir / "report.json").read_text())["groups"]["overall"]
    features = json.loads((out_dir / "households.geojson").read_text())["features"]
    assert len(features) == overall["household_count"]
    for key in ("candidate", "baseline"):
        values = [f["properties"][f"nearest_{key}_mi"] for f in features]
        assert sum(values) / len(values) == pytest.approx(overall[f"{key}_avg_mi"], rel=1e-12)


# --- config shape -------------------------------------------------------------------

@pytest.mark.parametrize("stage", ["synth", "ingest", "matrix", "place", "evaluate"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, stage):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[]")
    argv = ["--config", cfg_path, stage] + (["--output", tmp_path / "x.csv"] if stage == "synth" else [])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "JSON object" in err


@pytest.mark.parametrize(
    "overrides, stage, key",
    [
        ({"dataset": {"path": "s.csv", "schema": None}}, "ingest", "dataset.schema"),
        ({"hierarchy": None}, "place", "hierarchy"),
        ({"provider": "osrm"}, "matrix", "provider"),
    ],
)
def test_config_section_that_is_not_an_object_exits_2(tmp_path, capsys, overrides, stage, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(overrides))
    assert run(["--config", cfg_path, stage]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key {key} must be an object" in err


# --- global flags -------------------------------------------------------------------

def test_importing_the_cli_does_not_import_requests():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, pantryplan.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_flag_overrides_config_seed(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(["--config", cfg_path, "--seed", 9, "synth", "--clusters", 1, "--points", 4, "--output", out_a])
    run(["--config", cfg_path, "--seed", 10, "synth", "--clusters", 1, "--points", 4, "--output", out_b])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_missing_config_file_exits_2(tmp_path):
    assert run(["--config", tmp_path / "absent.json", "synth", "--output", tmp_path / "x.csv"]) == 2


def test_threads_flag_accepted(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 3, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    assert run(["--config", cfg_path, "--threads", 2, "matrix"]) == 0


@pytest.mark.parametrize("config_threads, flag", [("2", None), (0, None), (None, 0), (None, -1)])
def test_threads_that_is_not_a_positive_integer_exits_2(tmp_path, capsys, config_threads, flag):
    cfg_path, _ = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 3, "--output", tmp_path / "synth.csv"])
    assert run(["--config", cfg_path, "ingest"]) == 0
    cfg_path, _ = write_config(tmp_path, **({} if config_threads is None else {"threads": config_threads}))
    capsys.readouterr()
    argv = ["--config", cfg_path] + ([] if flag is None else ["--threads", flag]) + ["matrix"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threads must be an integer >= 1" in err


def test_outputs_embed_provenance(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    prepared_head = (out_dir / "prepared.csv").read_text().splitlines()[0]
    assert "seed=5" in prepared_head and "config_hash=" in prepared_head
    plan = json.loads((out_dir / "plan.json").read_text())
    assert plan["meta"]["seed"] == 5
