import json
from pathlib import Path

import numpy as np
import pytest

import pantryplan.distance as distance
from pantryplan.cli import main
from pantryplan.distance import FixtureTransport, GeoPoint, ProviderSpec, build_matrix, load_matrix
from pantryplan.hierarchy import HierarchyParams, SolverOptions, place_two_level, plan_from_dict
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
    opts = SolverOptions(seed=5)
    expected = place_two_level(
        matrix,
        HierarchyParams(k_banks=2, k_pantries_total=4, level1=opts, level2=opts),
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


# --- global flags -------------------------------------------------------------------

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


def test_outputs_embed_provenance(tmp_path):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    prepared_head = (out_dir / "prepared.csv").read_text().splitlines()[0]
    assert "seed=5" in prepared_head and "config_hash=" in prepared_head
    plan = json.loads((out_dir / "plan.json").read_text())
    assert plan["meta"]["seed"] == 5
