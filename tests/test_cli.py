import contextlib
import csv
import errno
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import pantryplan.cli as cli
import pantryplan.distance as distance
import pantryplan.evaluate as evaluate
import pantryplan.hierarchy as hierarchy
import pantryplan.ingest as ingest
from pantryplan.cli import main
from pantryplan.distance import (
    GeoPoint,
    ProviderSpec,
    build_matrix,
    load_matrix,
    nearest_great_circle,
    save_matrix,
)
from pantryplan.errors import ConfigError, DistanceError, EvaluateError, IngestError, PantryPlanError, SolveError
from pantryplan.hierarchy import HierarchyParams, place_two_level, plan_to_dict
from pantryplan.ingest import ColumnSchema, Household, load_households, load_prepared, write_households_csv
from pantryplan.kmedoids import SolveParams, solve

from conftest import MockTableTransport, load_table_fixtures, rewrite_trailer
from test_ingest import CELLS, COLUMNS


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


def pipeline_through_place(tmp_path, **overrides):
    cfg_path, cfg = write_config(tmp_path, **overrides)
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


def test_synth_without_flags_writes_the_default_synth_params(tmp_path):
    # the flags have no defaults of their own: SynthParams' are the only ones
    from pantryplan import synth

    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "default.csv"
    assert run(["--config", cfg_path, "synth", "--output", out]) == 0
    assert load_prepared(out) == ingest.HouseholdTable.of(synth.generate(synth.SynthParams(seed=cfg["seed"])))


@pytest.mark.parametrize("seed", ["3", True, 1.5])
def test_synth_with_a_seed_that_is_not_an_integer_exits_2(tmp_path, capsys, seed):
    cfg_path, _ = write_config(tmp_path, seed=seed)
    capsys.readouterr()
    assert run(["--config", cfg_path, "synth", "--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be an integer" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("spread", ["nan", "inf", "-inf"])
def test_synth_with_a_non_finite_spread_exits_2(tmp_path, capsys, spread):
    cfg_path, _ = write_config(tmp_path)
    capsys.readouterr()
    assert run(["--config", cfg_path, "synth", f"--spread={spread}", "--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "spread_deg must be finite" in err
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


def test_ingest_with_infinite_weight_settings_exits_2(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 12, "--output", tmp_path / "synth.csv"])
    cfg_path, _ = write_config(
        tmp_path, ingest={"weighting_mode": "duplicate", "weight_cap": 1e308, "weight_numerator": 1e308})
    # json reads 1e999 as inf without consulting parse_constant
    cfg_path.write_text(cfg_path.read_text().replace("1e+308", "1e999"))
    capsys.readouterr()
    assert run(["--config", cfg_path, "ingest"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weight_cap must be finite, got inf" in err


def test_ingest_weighting_an_income_too_small_to_scale_exits_2(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, ingest={"weighting_mode": "direct"})
    (tmp_path / "synth.csv").write_text("id,lat,lon,income,city\na,34.0,-118.0,5e-324,x\nb,34.1,-118.1,20000,x\n")
    capsys.readouterr()
    assert run(["--config", cfg_path, "ingest"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cannot weight income 5e-324" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_ingest_refuses_an_income_that_is_not_finite(tmp_path, capsys, cell):
    # a NaN income was once left out by the income filter with no error, and
    # an infinite one failed later as the weight derived from it, 5 / inf
    cfg_path, cfg = write_config(tmp_path, ingest={"weighting_mode": "direct", "income_cap": 1e300})
    dataset = "id,lat,lon,income,city\na,34.0,-118.0,20000,x\nb,34.1,-118.1,{},x\n"
    (tmp_path / "synth.csv").write_text(dataset.format(cell))
    capsys.readouterr()
    assert run(["--config", cfg_path, "ingest"]) == 2
    assert capsys.readouterr().err == f"error: line 3: income must be finite and nonnegative, got {cell!r}\n"
    prepared = Path(cfg["out_dir"]) / "prepared.csv"
    assert not prepared.exists()
    (tmp_path / "synth.csv").write_text(dataset.format(""))  # an empty cell is an unknown income
    assert run(["--config", cfg_path, "ingest"]) == 0
    assert load_prepared(prepared).incomes == (20000.0, None)


def test_ingest_refuses_rows_whose_matrix_is_over_the_limit(tmp_path, capsys, monkeypatch):
    cfg_path, cfg = write_config(tmp_path, ingest={"income_cap": 1e9})
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 12, "--output", tmp_path / "synth.csv"])
    prepared = Path(cfg["out_dir"]) / "prepared.csv"
    monkeypatch.setattr(distance, "MAX_MATRIX_BYTES", 12 * 12 * 8)
    assert run(["--config", cfg_path, "ingest"]) == 0
    assert len(load_prepared(prepared)) == 12
    before = prepared.read_bytes()
    monkeypatch.setattr(distance, "MAX_MATRIX_BYTES", 12 * 12 * 8 - 1)
    capsys.readouterr()
    assert run(["--config", cfg_path, "--force", "ingest"]) == 2
    err = capsys.readouterr().err
    assert err == "error: a 12 x 12 distance matrix needs 1,152 bytes, over the limit of 1,151 bytes\n"
    assert prepared.read_bytes() == before  # left as it was


def test_ingest_refuses_copies_past_the_matrix_limit_before_building_them(tmp_path, capsys, monkeypatch):
    # one row weighted to 16,385 copies, whose square matrix is past the
    # limit: the largest table ingest builds is the one row's
    (tmp_path / "one.csv").write_text("lat,lon,income\n40.0,-86.0,1\n")
    ingest_cfg = {"weighting_mode": "duplicate", "weight_cap": 16385, "weight_numerator": 1e9}
    dataset = {"path": str(tmp_path / "one.csv"), "schema": {"income": "income"}}
    cfg_path, cfg = write_config(tmp_path, dataset=dataset, ingest=ingest_cfg)
    built = []
    init = ingest.HouseholdTable.__init__

    def recording(table, *args, **kwargs):
        init(table, *args, **kwargs)
        built.append(len(table))

    monkeypatch.setattr(ingest.HouseholdTable, "__init__", recording)
    capsys.readouterr()
    assert run(["--config", cfg_path, "ingest"]) == 2
    assert capsys.readouterr().err == (
        "error: a 16385 x 16385 distance matrix needs 2,147,745,800 bytes, over the limit of 2,147,483,648 bytes\n"
    )
    assert max(built) == 1
    assert not (Path(cfg["out_dir"]) / "prepared.csv").exists()


def test_matrix_over_the_limit_exits_3_before_building(tmp_path, capsys, monkeypatch):
    cfg_path, cfg = write_config(tmp_path, ingest={"income_cap": 1e9})
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 12, "--output", tmp_path / "synth.csv"])
    assert run(["--config", cfg_path, "ingest"]) == 0
    monkeypatch.setattr(distance, "MAX_MATRIX_BYTES", 100)
    capsys.readouterr()
    assert run(["--config", cfg_path, "matrix"]) == 3
    assert "needs 1,152 bytes, over the limit of 100 bytes" in capsys.readouterr().err
    assert not (Path(cfg["out_dir"]) / "matrix.dmat").exists()


@pytest.mark.parametrize("dataset, read", [
    ("id,lat,lon,income,city\na,39.0,-86.5,20000,x\nb,39.1,-86.4,30000,x\n", 2),
    ("id,lat,lon,income,city\n", 0),
], ids=["income_cap -1", "header only"])
def test_ingest_that_keeps_no_household_exits_2_before_writing(tmp_path, capsys, dataset, read):
    cfg_path, cfg = write_config(tmp_path)
    run(["--config", cfg_path, "synth", "--clusters", 1, "--points", 12, "--output", tmp_path / "synth.csv"])
    assert run(["--config", cfg_path, "ingest"]) == 0
    prepared = Path(cfg["out_dir"]) / "prepared.csv"
    before = prepared.read_bytes()
    (tmp_path / "synth.csv").write_text(dataset)
    cfg_path, _ = write_config(tmp_path, ingest={"income_cap": -1} if read else {})
    capsys.readouterr()
    assert run(["--config", cfg_path, "ingest"]) == 2
    assert capsys.readouterr().err == (
        f"error: {read} households read from {tmp_path / 'synth.csv'}, and the income filter kept none\n"
    )
    assert prepared.read_bytes() == before  # left as it was


def test_ingest_bad_path_exits_2(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, dataset={"path": str(tmp_path / "missing.csv"), "schema": {}})
    assert run(["--config", cfg_path, "ingest"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_a_household_whose_id_starts_with_a_hash_reaches_the_report(tmp_path, capsys):
    # prepared.csv once wrote its row unquoted, and every later stage read
    # it as a comment line: 3 prepared, 2 in the report
    (tmp_path / "synth.csv").write_text(
        'id,lat,lon,income,city\n"#A1",39.0,-86.5,20000,x\nb,39.1,-86.4,30000,x\nc,39.2,-86.3,,x\n'
    )
    (tmp_path / "pantries.csv").write_text("lat,lon\n39.05,-86.45\n")
    cfg_path, cfg = write_config(
        tmp_path,
        hierarchy={"k_banks": 1, "k_pantries_total": 2},
        baselines={"banks": None, "pantries": str(tmp_path / "pantries.csv"), "schema": {"lat": "lat", "lon": "lon"}},
    )
    for stage in ("ingest", "matrix", "place", "evaluate"):
        assert run(["--config", cfg_path, stage]) == 0
    assert "3 read, 3 prepared" in capsys.readouterr().out
    out_dir = Path(cfg["out_dir"])
    assert [h.id for h in load_prepared(out_dir / "prepared.csv")] == ["#A1", "b", "c"]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["groups"]["overall"]["household_count"] == 3


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


@pytest.mark.parametrize("stage, code", [("matrix", 0), ("place", 4), ("evaluate", 5)])
def test_stage_with_matrix_from_another_provider(tmp_path, capsys, stage, code):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir, provider={"kind": "great_circle", "earth_radius": 1000.0})
    plan = (out_dir / "plan.json").read_bytes()
    capsys.readouterr()
    assert run(["--config", cfg_path, stage]) == code
    out, err = capsys.readouterr()
    why = f"{out_dir / 'matrix.dmat'}: built by provider great_circle, config asks for great_circle:1000.0"
    if stage == "matrix":  # rebuilt by the configured provider
        assert f"rebuilding {why}" in out
        assert load_matrix(out_dir / "matrix.dmat").provider_tag == "great_circle:1000.0"
    else:
        assert err.startswith(f"error: {why}") and "run matrix again" in err
        assert (out_dir / "plan.json").read_bytes() == plan and not (out_dir / "report.json").exists()


def test_evaluate_plan_of_other_households_same_count_exits_5(tmp_path, capsys):
    cfg_path, out_dir = resample(tmp_path, 1, 2)
    assert run(["--config", cfg_path, "--seed", 2, "matrix"]) == 0  # rebuilt for the new households
    cfg_path = evaluate_config(tmp_path, out_dir)
    capsys.readouterr()
    assert run(["--config", cfg_path, "--seed", 2, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir / "plan.json") in err and "prepared household" in err
    assert not (out_dir / "report.json").exists()


TRAILER_DAMAGE = {
    "missing_key": (lambda trailer: {k: v for k, v in trailer.items() if k != "provider_tag"},
                    "trailer has no 'provider_tag'"),
    "not_an_object": (lambda trailer: [trailer], "trailer is not a JSON object"),
    "bad_point": (lambda trailer: {**trailer, "sources": [[True, 0.0]] + trailer["sources"][1:]},
                  "trailer sources[0] is not a [lat, lon] pair of numbers"),
    # json parses it with int(), which refuses more than 4300 digits
    "int_of_5001_digits": (lambda trailer: json.dumps(trailer)[:-1] + ', "note": 1' + "0" * 5000 + "}",
                           "bad trailer: Exceeds the limit"),
}


@pytest.mark.parametrize("damage", sorted(TRAILER_DAMAGE))
def test_matrix_with_malformed_trailer_is_rebuilt(tmp_path, capsys, damage):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    edit, why = TRAILER_DAMAGE[damage]
    rewrite_trailer(out_dir / "matrix.dmat", edit)
    capsys.readouterr()
    assert run(["--config", cfg_path, "matrix"]) == 0
    out = capsys.readouterr().out
    assert f"rebuilding {out_dir / 'matrix.dmat'}: unreadable (" in out and why in out
    pts = [h.location for h in load_prepared(out_dir / "prepared.csv")]
    assert load_matrix(out_dir / "matrix.dmat").values.tobytes() == build_matrix(ProviderSpec(), pts, pts).values.tobytes()


@pytest.mark.parametrize("damage", sorted(TRAILER_DAMAGE))
@pytest.mark.parametrize("stage", ["place", "evaluate"])
def test_stage_with_malformed_matrix_trailer_exits_3(tmp_path, capsys, stage, damage):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    if stage == "evaluate":
        cfg_path = evaluate_config(tmp_path, out_dir)
    edit, why = TRAILER_DAMAGE[damage]
    rewrite_trailer(out_dir / "matrix.dmat", edit)
    capsys.readouterr()
    assert run(["--config", cfg_path, stage]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_dir / 'matrix.dmat'}: ") and why in err


def test_matrix_without_prepared_exits_3(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert run(["--config", cfg_path, "matrix"]) == 3


def test_matrix_from_recorded_fixture(tmp_path, monkeypatch):
    fixtures = load_table_fixtures()
    monkeypatch.setattr(distance, "RequestsTransport", lambda: MockTableTransport(fixtures=fixtures))
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

    matrix = load_matrix(out_dir / "matrix.dmat")
    households = load_prepared(out_dir / "prepared.csv")
    expected = place_two_level(
        matrix,
        HierarchyParams(k_banks=2, k_pantries_total=4, seed=5),
        [h.weight for h in households],
    )
    assert {k: v for k, v in plan_data.items() if k != "meta"} == plan_to_dict(expected, households)
    assert plan_data["meta"]["seed"] == 5
    assert "config_hash" in plan_data["meta"]


def test_place_single_bank_equals_flat_solve(tmp_path):
    cfg_path, cfg = write_config(tmp_path, hierarchy={"k_banks": 1, "k_pantries_total": 3})
    run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 8, "--output", tmp_path / "synth.csv"])
    run(["--config", cfg_path, "ingest"])
    run(["--config", cfg_path, "matrix"])
    assert run(["--config", cfg_path, "place"]) == 0
    out_dir = Path(cfg["out_dir"])
    pantries = [p["index"] for p in json.loads((out_dir / "plan.json").read_text())["pantries"]]
    matrix = load_matrix(out_dir / "matrix.dmat")
    flat = solve(matrix, SolveParams(k=3, seed=5))
    assert tuple(sorted(pantries)) == flat.medoids


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


def test_place_with_infinite_epsilon_exits_4(tmp_path, capsys):
    pipeline_through_place(tmp_path)
    cfg_path, _ = write_config(tmp_path, hierarchy={"k_banks": 1, "k_pantries_total": 2, "epsilon": 1e308})
    # json reads 1e999 as inf without consulting parse_constant
    cfg_path.write_text(cfg_path.read_text().replace("1e+308", "1e999"))
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "epsilon must be positive and finite" in err


@pytest.mark.parametrize("mode, message", [
    ("cluster_screened", "mode 'cluster_screened' was removed; the one swap rule is 'global_swap'"),
    ("annealing", "unknown mode 'annealing'"),
])
def test_place_refuses_every_mode_but_global_swap(tmp_path, capsys, mode, message):
    with pytest.raises(SolveError) as refused:
        SolveParams(k=2, mode=mode)
    assert str(refused.value) == message
    cfg_path, cfg = write_config(tmp_path, hierarchy={"k_banks": 2, "k_pantries_total": 4, "mode": mode})
    assert run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 10,
                "--output", tmp_path / "synth.csv"]) == 0
    assert run(["--config", cfg_path, "ingest"]) == 0
    assert run(["--config", cfg_path, "matrix"]) == 0
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (Path(cfg["out_dir"]) / "plan.json").exists()


def test_place_that_runs_out_of_passes_exits_4_and_keeps_the_plan(tmp_path, capsys):
    cfg_path, out_dir = pipeline_through_place(tmp_path)
    plan = {name: (out_dir / name).read_bytes() for name in ("plan.json", "plan.geojson")}
    assert json.loads(plan["plan.json"])["level1_passes"] > 1  # the bank level needs a second pass
    cfg_path, _ = write_config(tmp_path, hierarchy={"k_banks": 2, "k_pantries_total": 4, "max_passes": 1})
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    assert capsys.readouterr().err == "error: no convergence after 1 passes\n"
    assert {name: (out_dir / name).read_bytes() for name in plan} == plan


@pytest.mark.parametrize("mode", ["duplicate", "direct"])
def test_place_refuses_more_pantries_than_distinct_households(tmp_path, capsys, mode):
    # one household, income 20,000: weight 2.5, three copies under duplicate;
    # duplicate put the second pantry on a copy and exited 0
    cfg_path, cfg = write_config(
        tmp_path, ingest={"weighting_mode": mode}, hierarchy={"k_banks": 1, "k_pantries_total": 2})
    (tmp_path / "synth.csv").write_text("id,lat,lon,income,city\na,39.0,-86.5,20000,x\n")
    assert run(["--config", cfg_path, "ingest"]) == 0
    assert len(load_prepared(Path(cfg["out_dir"]) / "prepared.csv")) == (3 if mode == "duplicate" else 1)
    assert run(["--config", cfg_path, "matrix"]) == 0
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    want = {"duplicate": "k=2 out of range for 1 distinct of 3 points",
            "direct": "cannot place 2 pantries among 1 households"}[mode]
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (Path(cfg["out_dir"]) / "plan.json").exists()


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


def test_report_json_keys_are_the_report_field_names(tmp_path):
    _, out_dir = pipeline_through_place(tmp_path)
    assert run(["--config", evaluate_config(tmp_path, out_dir), "evaluate"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) == {"meta", "groups", "penalty"}
    figures = {"candidate_avg_mi", "baseline_avg_mi", "candidate_total_mi", "baseline_total_mi"}
    for group in report["groups"].values():
        assert set(group) == {*figures, "saving_mi", "saving_pct", "household_count"}
    assert set(report["penalty"]) == {*figures, "per_pantry_avg_mi", "total_mi", "pantry_count"}


def test_plan_geojson_has_a_point_per_site_of_plan_json(tmp_path):
    _, out_dir = pipeline_through_place(tmp_path)
    plan = json.loads((out_dir / "plan.json").read_text())
    features = json.loads((out_dir / "plan.geojson").read_text())["features"]
    sites = [("bank", b) for b in plan["banks"]] + [("pantry", p) for p in plan["pantries"]]
    assert len(features) == len(sites)
    bank_id = {b["index"]: b["id"] for b in plan["banks"]}
    for feature, (role, site) in zip(features, sites):
        assert feature["geometry"] == {"type": "Point", "coordinates": [site["lon"], site["lat"]]}
        assert feature["properties"]["role"] == role and feature["properties"]["id"] == site["id"]
        if role == "pantry":
            assert feature["properties"]["bank_id"] == bank_id[site["bank_index"]]


@pytest.mark.parametrize("source", ["city column", "city box"])
def test_evaluate_refuses_a_group_labelled_overall(tmp_path, capsys, source):
    # a box over the whole globe, or a city cell, labels a household overall
    _, out_dir = pipeline_through_place(tmp_path)
    boxes = {"overall": [-90, -180, 90, 180]} if source == "city box" else None
    if source == "city column":
        table = load_prepared(out_dir / "prepared.csv")
        write_households_csv(replace(table, cities=("overall",) + table.cities[1:]), out_dir / "prepared.csv")
    cfg_path = evaluate_config(tmp_path, out_dir, cities=boxes)
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 5
    assert capsys.readouterr().err == "error: group label 'overall' is reserved for the figures over all households\n"
    assert not (out_dir / "report.json").exists()


def test_evaluate_without_plan_exits_5(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    assert run(["--config", cfg_path, "evaluate"]) == 5


@pytest.mark.parametrize("damage", ["truncated", "missing_key", "int_of_5000_digits"])
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
    elif damage == "int_of_5000_digits":
        # json parses it with int(), which refuses more than 4300 digits
        data = json.loads(text)
        plan_path.write_text(json.dumps({**data, "level1_objective_m": 0}).replace(
            '"level1_objective_m": 0', '"level1_objective_m": 1' + "0" * 4999))
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
        ({"a": [95, 0, 96, 1]}, "cities.a"),  # a corner GeoPoint refuses
        ({"a": [0, 0, 1, 181]}, "cities.a"),
        ({"a": [39.8, -86.3, 39.3, -85.7]}, "cities.a"),  # a minimum above its maximum
        ({"a": [39.3, -85.7, 39.8, -86.3]}, "cities.a"),
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


@pytest.mark.parametrize("bound", [math.nan, math.inf, 10**400], ids=["nan", "inf", "10**400"])
def test_a_city_box_bound_that_geopoint_refuses_is_a_config_error(bound):
    # JSON cannot spell these; a library caller's overrides can
    for box in ([bound, -86.3, 39.8, -85.7], [39.3, -86.3, 39.8, bound]):
        with pytest.raises(ConfigError, match=r"^config key cities\.a must be "):
            cli.load_config(None, {"cities": {"a": box}})


def test_evaluate_names_a_city_box_that_holds_no_household(tmp_path, capsys):
    _, out_dir = pipeline_through_place(tmp_path)
    boxes = {"everywhere": [-10, -170, 80, 170], "pole": [89, 0, 89.5, 1], "cape": [-60, 0, -59, 1]}
    cfg_path = evaluate_config(tmp_path, out_dir, cities=boxes)
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 0
    line = capsys.readouterr().out
    assert line.endswith("; no prepared household in cities box pole, cape\n")
    # the report still has no group for a box that holds no household
    assert set(json.loads((out_dir / "report.json").read_text())["groups"]) == {"overall", "everywhere"}
    assert "pole" not in (out_dir / "report.csv").read_text()


def evaluate_config(tmp_path, out_dir, banks=True, **overrides):
    bank_csv, pantry_csv = baseline_from_plan(out_dir, tmp_path)
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": str(bank_csv) if banks else None, "pantries": str(pantry_csv),
                   "schema": {"lat": "lat", "lon": "lon"}},
        **overrides,
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


def assign_household_to_another_pantry(data):
    first = data["household_to_pantry"][0]
    data["household_to_pantry"][0] = next(p["index"] for p in data["pantries"] if p["index"] != first)


@pytest.mark.parametrize(
    "a, b, same",
    [
        ([1, 2], [1, 2], True),
        ([1, 2], [True, 2], False),  # == takes true for 1
        ([3], [3.0], False),  # and 3.0 for 3
        ({"index": 3, "lat": 1.5}, {"lat": 1.5, "index": 3}, True),
        ({"index": 3}, {"index": 3.0}, False),
        ({"index": 3}, {"index": 3, "note": 1}, False),
        ([{"index": [0, 1]}], [{"index": [0, False]}], False),
        ([1, 2], [1], False),
        (None, [], False),
        ([], {}, False),
        ([-0.0], [0.0], False),  # == takes -0.0 for 0.0; only a hand-edited plan holds -0.0
    ],
)
def test_same_json_is_equality_with_the_same_types(a, b, same):
    # evaluate compares a plan's fields with place's by their canonical text
    assert (cli._canonical(a) == cli._canonical(b)) is same


def assign_household_to_true(data):
    # JSON true equals 1, so it is refused as a bool even where pantry 1 is right
    assigned = data["household_to_pantry"]
    assigned[assigned.index(1) if 1 in assigned else 0] = True


def move_first_pantry_to_another_bank(data):
    first = data["pantries"][0]
    first["bank_index"] = next(b["index"] for b in data["banks"] if b["index"] != first["bank_index"])


def no_banks(data):
    data["banks"] = []


def household_to_pantry_as_float(data):
    # == takes 3.0 for 3; the JSON text does not
    data["household_to_pantry"][0] = float(data["household_to_pantry"][0])


def extra_key_in_first_bank(data):
    data["banks"][0]["note"] = "kept"


def set_key(key, value):
    def damage(data):
        data[key] = value(data[key])
    return damage


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
        assign_household_to_another_pantry,
        assign_household_to_true,
        move_first_pantry_to_another_bank,
        no_banks,
        household_to_pantry_as_float,
        extra_key_in_first_bank,
        set_key("level2_passes", lambda x: None),
        set_key("level1_passes", float),
        set_key("level1_objective_m", lambda x: x * (1 + 1e-8)),
        set_key("level2_objective_m", lambda x: x * (1 - 1e-8)),
        set_key("level1_objective_m", str),
        set_key("level2_objective_m", lambda x: None),
        set_key("level1_objective_m", lambda x: 10**400),
        set_key("level2_objective_m", int),
    ],
    ids=["pantry_10000", "pantry_-1", "pantry_bool", "pantry_float", "bank_index_10000", "bank_index_str",
         "bank_index_not_a_bank", "pantry_twice", "short_assignment", "assignment_not_a_pantry",
         "assignment_not_nearest", "assignment_bool", "bank_index_not_nearest", "no_banks",
         "assignment_float", "bank_extra_key", "level2_passes_null", "level1_passes_float",
         "level1_objective_high", "level2_objective_low", "level1_objective_str", "level2_objective_null",
         "level1_objective_huge_int", "level2_objective_int"],
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


def edit_prepared(out_dir, row, column, value):
    """Set one cell of prepared.csv, row counted from 0 past the header."""
    path = out_dir / "prepared.csv"
    comment, *lines = path.read_text().splitlines(keepends=True)
    rows = list(csv.reader(lines))
    rows[row + 1][rows[0].index(column)] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(comment)
        csv.writer(fh).writerows(rows)


def test_evaluate_after_a_weight_edit_exits_5_until_placed_again(tmp_path, capsys):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    plan = json.loads((out_dir / "plan.json").read_text())
    facilities = {e["index"] for e in plan["banks"] + plan["pantries"]}
    row = next(i for i in range(len(plan["household_to_pantry"])) if i not in facilities)
    edit_prepared(out_dir, row, "weight", "120")
    capsys.readouterr()
    assert run(["--config", cfg_path, "evaluate"]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: plan {out_dir / 'plan.json'}: level1_objective_m is ") and "weights" in err
    assert not (out_dir / "report.json").exists()
    assert run(["--config", cfg_path, "place"]) == 0
    assert run(["--config", cfg_path, "evaluate"]) == 0


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


def record_provider_calls(monkeypatch):
    """The (sources, destinations) sizes of every build_matrix call and of
    every nearest_great_circle call from here on."""
    built, nearest = [], []

    def counting_build(spec, sources, destinations, *args, **kwargs):
        built.append((len(sources), len(destinations)))
        return build_matrix(spec, sources, destinations, *args, **kwargs)

    def counting_nearest(sources, destinations, *args, **kwargs):
        nearest.append((len(sources), len(destinations)))
        return nearest_great_circle(sources, destinations, *args, **kwargs)

    for module in (evaluate, distance):
        monkeypatch.setattr(module, "build_matrix", counting_build)
        monkeypatch.setattr(module, "nearest_great_circle", counting_nearest)
    return built, nearest


def test_evaluate_builds_only_the_baseline_rectangles(tmp_path, monkeypatch):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    built, nearest = record_provider_calls(monkeypatch)
    assert run(["--config", cfg_path, "evaluate"]) == 0
    households = len(load_prepared(out_dir / "prepared.csv"))
    # households x baseline pantries, baseline pantries x baseline banks: only
    # their row minima, and no matrix is built
    assert nearest == [(households, 4), (4, 2)] and built == []


def test_evaluate_with_a_table_provider_builds_the_baseline_rectangles(tmp_path, monkeypatch):
    monkeypatch.setattr(distance, "RequestsTransport", MockTableTransport)
    provider = {"kind": "table_api", "base_url": "http://osrm.test", "chunk_size": 100}
    _, out_dir = pipeline_through_place(tmp_path, provider=provider)
    cfg_path = evaluate_config(tmp_path, out_dir, provider=provider)
    built, nearest = record_provider_calls(monkeypatch)
    assert run(["--config", cfg_path, "evaluate"]) == 0
    households = len(load_prepared(out_dir / "prepared.csv"))
    assert built == [(households, 4), (4, 2)] and nearest == []


def test_evaluate_bounds_the_baseline_tiles_by_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(distance, "RequestsTransport", MockTableTransport)
    provider = {"kind": "table_api", "base_url": "http://osrm.test", "chunk_size": 100}
    _, out_dir = pipeline_through_place(tmp_path, provider=provider)
    cfg_path = evaluate_config(tmp_path, out_dir, provider=provider)
    bounds = []

    def recording_build(*args, max_in_flight=4, **kwargs):
        bounds.append(max_in_flight)
        return build_matrix(*args, max_in_flight=max_in_flight, **kwargs)

    monkeypatch.setattr(evaluate, "build_matrix", recording_build)
    assert run(["--config", cfg_path, "--threads", 1, "evaluate"]) == 0
    assert bounds == [1, 1]


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


def test_households_geojson_candidate_distance_is_the_row_minimum(tmp_path):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    assert run(["--config", cfg_path, "evaluate"]) == 0
    pantries = [p["index"] for p in json.loads((out_dir / "plan.json").read_text())["pantries"]]
    d = load_matrix(out_dir / "matrix.dmat").values
    features = json.loads((out_dir / "households.geojson").read_text())["features"]
    got = [f["properties"]["nearest_candidate_mi"] for f in features]
    want = (d[:, pantries].min(axis=1) / evaluate.METERS_PER_MILE).tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.fixture(scope="module")
def placed(tmp_path_factory):
    """A run through evaluate, its evaluate config and its report."""
    tmp_path = tmp_path_factory.mktemp("placed")
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    assert main(["--config", str(cfg_path), "evaluate"]) == 0
    return json.loads(cfg_path.read_text()), out_dir, json.loads((out_dir / "report.json").read_text())


@settings(max_examples=60, deadline=None)
@given(
    edit=st.one_of(
        st.tuples(st.just("lat"), st.integers(0, 10**6), st.floats(-90, 90)),
        st.tuples(st.just("lon"), st.integers(0, 10**6), st.floats(-180, 180)),
        st.tuples(st.just("weight"), st.integers(0, 10**6), st.floats(1e-300, 1e300)),
        # moves the objectives by less than their tolerance
        st.tuples(st.just("weight"), st.integers(0, 10**6), st.floats(1 - 1e-12, 1 + 1e-12)),
        st.tuples(st.just("earth_radius"), st.none(), st.floats(1.0, 1e12)),
    )
)
def test_evaluate_refuses_inputs_the_plan_was_not_placed_on(placed, tmp_path_factory, edit):
    # one edit of prepared.csv or the provider after place: coordinates and
    # the provider are always refused; a run that passes reports as before
    cfg, out_dir, report = placed
    column, row, value = edit
    copy = tmp_path_factory.mktemp("edited") / "out"
    shutil.copytree(out_dir, copy)
    (copy / "report.json").unlink()
    cfg = {**cfg, "out_dir": str(copy)}
    if column == "earth_radius":
        assume(value != distance.EARTH_RADIUS_M)
        cfg["provider"] = {"kind": "great_circle", "earth_radius": value}
    else:
        households = load_prepared(copy / "prepared.csv")
        row %= len(households)
        h = households[row]
        assume(value != {"lat": h.location.lat, "lon": h.location.lon, "weight": h.weight}[column])
        edit_prepared(copy, row, column, repr(value))
    cfg_path = copy.parent / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["--config", str(cfg_path), "evaluate"])
    event(f"{column} exits {code}")
    assert code in (0, 2, 3, 4, 5)
    if column != "weight":
        assert code == 5
    if code == 0:
        edited = json.loads((copy / "report.json").read_text())
        assert (edited["groups"], edited["penalty"]) == (report["groups"], report["penalty"])


PLAN_MUTATIONS = {
    "null": None,
    "string": "x",
    "bool": True,
    "huge int": 10**400,
    "list": [],
    "object": {},
    "NaN": math.nan,
}


@settings(max_examples=100, deadline=None)
@given(
    key=st.sampled_from(["meta", "banks", "pantries", "household_to_pantry", "level1_objective_m",
                         "level2_objective_m", "level1_passes", "level2_passes"]),
    steps=st.lists(st.integers(0, 10**6), max_size=2),
    mutation=st.sampled_from([*PLAN_MUTATIONS, "delete"]),
)
@example(key="level1_objective_m", steps=[], mutation="huge int")
def test_evaluate_on_a_mutated_plan_exits_0_or_5(placed, tmp_path_factory, key, steps, mutation):
    # one value of plan.json replaced, or one key or list entry deleted: the
    # plan is refused, or reports as before
    cfg, out_dir, report = placed
    copy = tmp_path_factory.mktemp("mutated") / "out"
    shutil.copytree(out_dir, copy)
    (copy / "report.json").unlink()
    data = json.loads((copy / "plan.json").read_text())
    parent, at = data, key
    for step in steps:  # walk down into lists and objects, by position
        child = parent[at]
        if not isinstance(child, (list, dict)) or not child:
            break
        parent, at = child, (step % len(child) if isinstance(child, list) else sorted(child)[step % len(child)])
    if mutation == "delete":
        del parent[at]
    else:
        parent[at] = PLAN_MUTATIONS[mutation]
    (copy / "plan.json").write_text(json.dumps(data))
    cfg_path = copy.parent / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(copy)}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg_path), "evaluate"])
    event(f"{key} {mutation} exits {code}")
    assert code in (0, 5)
    if code == 0:
        mutated = json.loads((copy / "report.json").read_text())
        assert (mutated["groups"], mutated["penalty"]) == (report["groups"], report["penalty"])
    else:
        assert err.getvalue().startswith("error: ")


# past csv.field_size_limit()'s default of 131,072 characters
LONG_CELL = "x" * 131_073

PREPARED_DAMAGE = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 10**6), st.integers(0, 6), st.sampled_from([*CELLS, LONG_CELL])),
    st.tuples(st.just("not UTF-8"), st.integers(0, 10**6)),
    st.tuples(st.just("drop row"), st.integers(0, 10**6)),
    st.tuples(st.just("repeat row"), st.integers(0, 10**6)),
    st.tuples(st.just("rename column"), st.integers(0, 6), st.sampled_from(COLUMNS)),
    st.tuples(st.just("drop column"), st.integers(0, 6)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.just(("BOM prepended",)),
)


def damage_prepared(path, damage):
    """Apply a list of PREPARED_DAMAGE to the CSV file at path, edits of
    rows and columns first and byte edits last. Rows, columns and cells
    count from 0 past the header and a first comment line, if the file has
    one, and bytes from 0, modulo their number. A UTF-8 byte-order mark is
    prepended after every other edit."""
    lines = path.read_text().splitlines(keepends=True)
    comment = lines.pop(0) if lines[0].startswith("#") else ""
    header, *rows = list(csv.reader(lines))
    for kind, *args in damage:
        if kind == "cell" and rows:
            row = rows[args[0] % len(rows)]
            row[args[1] % len(row)] = args[2]
        elif kind == "drop row" and rows:
            del rows[args[0] % len(rows)]
        elif kind == "repeat row" and rows:
            at = args[0] % len(rows)
            rows.insert(at, rows[at])
        elif kind == "rename column":
            header[args[0] % len(header)] = args[1]
        elif kind == "drop column":
            del header[args[0] % len(header)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(comment)
        csv.writer(fh).writerows([header, *rows])
    for kind, offset in (d for d in damage if d[0] in ("truncate", "not UTF-8")):
        text = path.read_bytes()
        at = offset % len(text) if text else 0  # a truncation may have left no byte
        path.write_bytes(text[:at] if kind == "truncate" else text[:at] + b"\xe9" + text[at:])
    if ("BOM prepended",) in damage:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


@settings(max_examples=100, deadline=None)
@given(damage=st.lists(PREPARED_DAMAGE, min_size=1, max_size=2))
@example(damage=[("cell", 3, 4, "nan")])
@example(damage=[("rename column", 1, "x")])
@example(damage=[("truncate", 0)])
@example(damage=[("truncate", 0), ("not UTF-8", 0)])
@example(damage=[("not UTF-8", 400)])
@example(damage=[("cell", 0, 6, LONG_CELL)])
@example(damage=[("BOM prepended",)])
def test_stages_on_a_damaged_prepared_csv_exit_0_or_name_the_error(placed, tmp_path_factory, damage):
    # prepared.csv damaged between ingest and the later stages: each stage
    # ends in an exit code of the CLI's with an error line, never a traceback;
    # a byte-order mark alone changes nothing
    cfg, out_dir, report = placed
    copy = tmp_path_factory.mktemp("damaged") / "out"
    shutil.copytree(out_dir, copy)
    (copy / "report.json").unlink()
    damage_prepared(copy / "prepared.csv", damage)
    cfg_path = copy.parent / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(copy)}))
    for stage in ("matrix", "place", "evaluate"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(cfg_path), stage])
        event(f"{stage} exits {code}")
        assert code in (0, 2, 3, 4, 5)
        assert err.getvalue().startswith("error: ") if code else err.getvalue() == ""
        if set(damage) == {("BOM prepended",)}:
            assert code == 0
    if set(damage) == {("BOM prepended",)}:
        damaged = json.loads((copy / "report.json").read_text())
        assert (damaged["groups"], damaged["penalty"]) == (report["groups"], report["penalty"])


@settings(max_examples=100, deadline=None)
@given(baseline=st.sampled_from(["pantries", "banks"]), damage=st.lists(PREPARED_DAMAGE, min_size=1, max_size=2))
@example(baseline="pantries", damage=[("cell", 0, 0, "#c")])
@example(baseline="banks", damage=[("cell", 0, 1, "a\n#b")])
@example(baseline="pantries", damage=[("drop column", 0)])
@example(baseline="banks", damage=[("not UTF-8", 3)])
@example(baseline="pantries", damage=[("cell", 0, 1, LONG_CELL)])
@example(baseline="pantries", damage=[("BOM prepended",)])
@example(baseline="banks", damage=[("BOM prepended",)])
def test_evaluate_on_a_damaged_baseline_csv_exits_0_or_names_the_error(placed, tmp_path_factory, baseline, damage):
    # a baseline pantries or banks file damaged as prepared.csv is above:
    # evaluate ends in an exit code of the CLI's with an error line; a
    # byte-order mark alone changes nothing
    cfg, out_dir, report = placed
    root = tmp_path_factory.mktemp("baseline")
    copy = root / "out"
    shutil.copytree(out_dir, copy)
    (copy / "report.json").unlink()
    paths = {key: shutil.copy(cfg["baselines"][key], root) for key in ("pantries", "banks")}
    damage_prepared(Path(paths[baseline]), damage)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(copy), "baselines": {**cfg["baselines"], **paths}}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg_path), "evaluate"])
    event(f"{baseline} exits {code}")
    assert code in (0, 2, 5)
    assert err.getvalue().startswith("error: ") if code else err.getvalue() == ""
    if set(damage) == {("BOM prepended",)}:
        assert code == 0
        damaged = json.loads((copy / "report.json").read_text())
        assert (damaged["groups"], damaged["penalty"]) == (report["groups"], report["penalty"])


def run_stages(cfg_path, stages, out_dir, report):
    """Run stages in order until one exits nonzero: each exit is one of the
    CLI's, a nonzero one with an error line. When every stage exits 0 and
    the last is evaluate, the groups and penalty of the report in out_dir
    are report's. Returns the exit codes."""
    codes = []
    for stage in stages:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(cfg_path), stage])
        event(f"{stage} exits {code}")
        assert code in (0, 2, 3, 4, 5)
        assert err.getvalue().startswith("error: ") if code else err.getvalue() == ""
        codes.append(code)
        if code:
            return codes
    if stages[-1] == "evaluate":
        out = json.loads((out_dir / "report.json").read_text())
        assert (out["groups"], out["penalty"]) == (report["groups"], report["penalty"])
    return codes


def config_keys(tree, prefix=()):
    """The key path of every value and section of a config tree shaped as
    cli.DEFAULTS, with the fields a section holds only when they are set."""
    unset = [f for f in cli.UNHASHED.get(prefix[-1], ()) if f not in tree] if prefix else []
    for key in [*tree, *unset]:
        yield prefix + (key,)
        if isinstance(tree.get(key), dict):
            yield from config_keys(tree[key], prefix + (key,))


def json_type(value) -> str:
    if value is None:
        return "null"
    return {bool: "bool", int: "number", float: "number", str: "string", list: "list", dict: "object"}[type(value)]


# a value replaced by one of another JSON type; list and object wrap it
RETYPES = {
    "null": lambda v: None,
    "bool": lambda v: True,
    "string": lambda v: "x",
    "number": lambda v: 1.5,
    "list": lambda v: [v],
    "object": lambda v: {"v": v},
}
# keys where null is a setting of its own (no such column, no bank
# baseline, no pass cap, no city boxes, no table URL), not a retype
NULL_IS_A_SETTING = {
    ("baselines", "banks"), ("hierarchy", "max_passes"), ("cities",), ("provider", "base_url"),
    *((section, "schema", f) for section in ("dataset", "baselines") for f in ("income", "id", "city")),
}


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(config_keys(cli.DEFAULTS))), retype=st.sampled_from(sorted(RETYPES)))
@example(key=("dataset", "schema", "lat"), retype="null")
@example(key=("dataset", "schema", "id"), retype="list")
@example(key=("baselines", "schema", "lon"), retype="null")
@example(key=("hierarchy", "max_passes"), retype="string")
def test_stages_on_a_retyped_config_value_exit_0_or_name_the_error(placed, tmp_path_factory, key, retype):
    # one value or section of the config replaced by another JSON type:
    # every stage from ingest on ends in an exit code of the CLI's with an
    # error line, never a traceback, or the run reports as before
    cfg, _, report = placed
    root = tmp_path_factory.mktemp("retyped")
    resolved = cli.load_config(None, {**cfg, "out_dir": str(root / "out")})
    *sections, name = key
    parent = resolved
    for section in sections:
        parent = parent[section]
    original = parent.get(name, distance.EARTH_RADIUS_M if key == ("provider", "earth_radius") else None)
    assume(json_type(original) != retype and not (retype == "null" and key in NULL_IS_A_SETTING))
    parent[name] = RETYPES[retype](original)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(resolved))
    codes = run_stages(cfg_path, ["ingest", "matrix", "place", "evaluate"], root / "out", report)
    if key in (("dataset", "schema", "lat"), ("dataset", "schema", "id"), ("baselines", "schema", "lon")):
        assert codes[-1] == 2  # ColumnSchema refuses it when the stage builds one


def test_max_passes_below_1_exits_4_naming_it(tmp_path, capsys):
    cfg_path, _ = pipeline_through_place(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["hierarchy"]["max_passes"] = -3
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run(["--config", cfg_path, "place"]) == 4
    assert capsys.readouterr().err == "error: max_passes must be >= 1, got -3\n"


def dmat_trailer_end(data: bytes) -> int:
    """The offset of a DMAT1 file's trailer length, from its header."""
    rows, cols = struct.unpack_from("<II", data, len(distance.MAGIC))
    return len(distance.MAGIC) + 8 + rows * cols * 8


DMAT_VALUES = [None, True, "1", [], {}, 0, 1.5, -1.0, 91.0, -181.0, 1e300, 10**400, math.nan, math.inf]
DMAT_DAMAGE = st.one_of(
    st.tuples(st.just("trailer key"), st.sampled_from(["sources", "destinations", "provider_tag", "crc32", "seed",
                                                      "config_hash", "created_at"]),
              st.sampled_from(["delete", *range(len(DMAT_VALUES))])),
    st.tuples(st.just("point"), st.sampled_from(["sources", "destinations"]), st.integers(0, 10**6),
              st.integers(0, 1), st.integers(0, len(DMAT_VALUES) - 1)),
    st.tuples(st.just("crc"), st.integers(1, 2**32 - 1)),
    st.tuples(st.just("magic"), st.integers(0, 4), st.integers(1, 255)),
    st.tuples(st.just("shape"), st.integers(0, 1), st.sampled_from(["zero", "one", "less", "more", "max"])),
    st.tuples(st.just("trailer length"), st.sampled_from(["zero", "less", "more", "max"])),
    st.tuples(st.just("flip"), st.integers(0, 10**9), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**9)),
)


def damage_dmat(path, damage):
    """Apply a list of DMAT_DAMAGE to the DMAT1 file at path: edits of the
    trailer's JSON first (the CRC kept, unless the edit is of it), a key's
    after a point's or the CRC's, then edits of the bytes, truncations last.
    Points count from 0 modulo their number, and bytes modulo the file's
    length; a truncation of a file an earlier one emptied leaves it empty."""
    def sized(kind, n):
        return {"zero": 0, "one": 1, "less": n - 1, "more": n + 1, "max": 2**32 - 1}[kind] % 2**32

    for kind, *args in sorted(damage, key=lambda d: d[0] == "trailer key"):
        if kind == "trailer key":
            name, how = args
            rewrite_trailer(path, lambda t: {k: v for k, v in t.items() if k != name} if how == "delete"
                            else {**t, name: DMAT_VALUES[how]})
        elif kind == "point":
            side, i, axis, value = args

            def edit(t):
                t[side][i % len(t[side])][axis] = DMAT_VALUES[value]
                return t

            rewrite_trailer(path, edit)
        elif kind == "crc":
            rewrite_trailer(path, lambda t: {**t, "crc32": t["crc32"] ^ args[0]})
    data = bytearray(path.read_bytes())
    end = dmat_trailer_end(data)  # before the header is edited
    for kind, *args in damage:
        if kind == "magic":
            data[args[0]] ^= args[1]
        elif kind == "shape":
            at = len(distance.MAGIC) + 4 * args[0]
            struct.pack_into("<I", data, at, sized(args[1], struct.unpack_from("<I", data, at)[0]))
        elif kind == "trailer length":
            struct.pack_into("<I", data, end, sized(args[0], struct.unpack_from("<I", data, end)[0]))
        elif kind == "flip":
            data[args[0] % len(data)] ^= args[1]
    for kind, *args in damage:
        if kind == "truncate":
            del data[args[0] % max(len(data), 1):]
    path.write_bytes(bytes(data))


@settings(max_examples=100, deadline=None)
@given(damage=st.lists(DMAT_DAMAGE, min_size=1, max_size=2))
@example(damage=[("trailer key", "created_at", "delete")])
@example(damage=[("trailer key", "created_at", 0)])
@example(damage=[("trailer key", "seed", "delete")])
@example(damage=[("shape", 0, "max")])
@example(damage=[("shape", 1, "less")])
@example(damage=[("trailer length", "max")])
@example(damage=[("crc", 1)])
@example(damage=[("point", "destinations", 3, 0, 11)])
@example(damage=[("truncate", 0), ("truncate", 0)])
def test_stages_on_a_damaged_matrix_exit_0_or_name_the_error(placed, tmp_path_factory, damage):
    # matrix.dmat damaged after place: place and evaluate end in an exit
    # code of the CLI's with an error line, or run as before; matrix then
    # rebuilds it or finds it whole, and the run reports as before
    cfg, out_dir, report = placed
    copy = tmp_path_factory.mktemp("dmat") / "out"
    shutil.copytree(out_dir, copy)
    (copy / "report.json").unlink()
    damage_dmat(copy / "matrix.dmat", damage)
    cfg_path = copy.parent / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(copy)}))
    for stage in ("place", "evaluate"):
        run_stages(cfg_path, [stage], copy, report)
    assert run_stages(cfg_path, ["matrix", "place", "evaluate"], copy, report) == [0, 0, 0]


def test_stages_build_households_only_for_plan_sites(tmp_path, monkeypatch):
    # matrix, place and evaluate read prepared.csv's columns: a Household is
    # built only for a bank or pantry, however many rows the file has
    built, rows = {}, {}
    for points in (10, 40):
        root = tmp_path / str(points)
        root.mkdir()
        cfg_path, cfg = write_config(root)
        run(["--config", cfg_path, "synth", "--clusters", 2, "--points", points, "--output", root / "synth.csv"])
        for stage in ("ingest", "matrix", "place"):
            assert run(["--config", cfg_path, stage]) == 0
        out_dir = Path(cfg["out_dir"])
        cfg_path = evaluate_config(root, out_dir)
        plan = json.loads((out_dir / "plan.json").read_text())
        sites = len({e["index"] for e in plan["banks"] + plan["pantries"]})
        counts = []
        with monkeypatch.context() as patch:
            check = Household.__post_init__
            patch.setattr(Household, "__post_init__", lambda h: (counts.append(h.id), check(h))[1])
            for stage in ("matrix", "place", "evaluate"):
                counts.clear()
                assert run(["--config", cfg_path, stage]) == 0
                built[points, stage] = len(counts)
        assert (built[points, "matrix"], built[points, "place"], built[points, "evaluate"]) == (0, sites, sites)
        rows[points] = len(load_prepared(out_dir / "prepared.csv"))
    assert rows[10] < rows[40]


class HalfWrite:
    """A file that takes half of its first write and then reports the disk
    full, as a write that fails partway does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize(
    "artifact, stage, module, code",
    [
        ("prepared.csv", ["ingest"], ingest, 2),
        ("matrix.dmat", ["--force", "matrix"], distance, 3),
        ("plan.json", ["place"], cli, 4),
        ("plan.geojson", ["place"], cli, 4),
        ("report.json", ["evaluate"], cli, 5),
        ("report.csv", ["evaluate"], cli, 5),
        ("households.geojson", ["evaluate"], cli, 5),
    ],
)
def test_a_write_failing_partway_leaves_the_previous_artifact(tmp_path, monkeypatch, capsys, artifact, stage, module, code):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    for again in (["ingest"], ["--force", "matrix"], ["place"], ["evaluate"]):  # every artifact from one config
        assert run(["--config", cfg_path, *again]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert artifact in before and not any(name.startswith(".") for name in before)
    # under another config every output the stage writes differs, if only
    # by its stamp, so none of them may replace its file unless all do
    cfg_path = evaluate_config(tmp_path, out_dir, hierarchy={"k_banks": 2, "k_pantries_total": 5})

    def open_failing(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return HalfWrite(fh) if "w" in mode and artifact in Path(file).name else fh

    monkeypatch.setattr(module, "open", open_failing, raising=False)
    capsys.readouterr()
    assert run(["--config", cfg_path, *stage]) == code
    assert "No space left on device" in capsys.readouterr().err
    # the previous file whole, and no temporary file left behind
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_synth_that_fails_to_write_leaves_the_previous_file(tmp_path, monkeypatch, capsys):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "synth.csv"
    assert run(["--config", cfg_path, "synth", "--clusters", 2, "--points", 5, "--output", out]) == 0
    before = out.read_bytes()

    def half_write(households, path, header_comment=None):
        Path(path).write_text("id,lat\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(ingest, "write_households_csv", half_write)
    capsys.readouterr()
    assert run(["--config", cfg_path, "synth", "--clusters", 3, "--output", out]) == 2
    assert "No space left on device" in capsys.readouterr().err
    # the previous file whole, and no temporary file left behind
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "synth.csv"]


def test_every_file_a_stage_writes_is_renamed_into_place(tmp_path, monkeypatch):
    renamed, rename = [], os.replace

    def recording(src, dst):
        renamed.append(Path(dst))
        rename(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    _, out_dir = pipeline_through_place(tmp_path)
    assert run(["--config", evaluate_config(tmp_path, out_dir), "evaluate"]) == 0
    # synth's file and every output: none is written in place
    assert sorted(renamed) == sorted([tmp_path / "synth.csv", *out_dir.iterdir()])
    assert len(renamed) == 8


@pytest.mark.parametrize("stage", ["ingest", "matrix", "evaluate"])
def test_short_csv_row_exits_2_naming_line_and_column(tmp_path, capsys, stage):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    # the dataset, prepared households and baseline pantries files
    path, keep = {"ingest": (tmp_path / "synth.csv", 2), "matrix": (out_dir / "prepared.csv", 2),
                  "evaluate": (tmp_path / "baseline_pantries.csv", 1)}[stage]
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    lines.append(",".join(cells[:keep]) + "\n")  # e.g. b,39.1 under id,lat,lon,...
    path.write_text("".join(lines))
    line_no = sum(1 for line in lines if not line.startswith("#"))
    capsys.readouterr()
    assert run(["--config", cfg_path, stage]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {line_no}: no cell for column 'lon'" in err


@pytest.mark.parametrize("seed", ["3", 1.5, True])
@pytest.mark.parametrize("stage", ["matrix", "place", "evaluate"])
def test_stage_with_mistyped_seed_exits_2(tmp_path, capsys, stage, seed):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir, seed=seed)
    outputs = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    capsys.readouterr()
    assert run(["--config", cfg_path, stage]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"config key seed must be an integer, got {seed!r}" in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == outputs


# --- GeoJSON writer -----------------------------------------------------------------

def test_geojson_files_are_canonical_json(tmp_path, monkeypatch):
    _, out_dir = pipeline_through_place(tmp_path)
    cfg_path = evaluate_config(tmp_path, out_dir)
    built = {}

    def keeping(module, name, artifact):
        make = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: built.setdefault(artifact, make(*args)))

    keeping(hierarchy, "plan_to_geojson", "plan.geojson")
    keeping(evaluate, "households_geojson", "households.geojson")
    assert run(["--config", cfg_path, "place"]) == 0
    assert run(["--config", cfg_path, "evaluate"]) == 0
    cfg = cli.load_config(str(cfg_path), {})
    provenance = {"seed": cfg["seed"], "config_hash": cli.config_hash(cfg)}
    for name in ("plan.geojson", "households.geojson"):
        text = (out_dir / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert json.loads(text) == {**built[name], "properties": provenance}


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


def test_a_great_circle_chain_imports_no_pool_fraction_transport_or_synth(tmp_path):
    # in a fresh interpreter, as each console-script stage runs: pytest
    # itself imports logging, so an in-process check would see nothing
    assert run(["--config", write_config(tmp_path)[0], "synth", "--clusters", 2, "--points", 10,
                "--output", tmp_path / "synth.csv"]) == 0
    (tmp_path / "pantries.csv").write_text("lat,lon\n39.05,-86.45\n")
    cfg_path, _ = write_config(
        tmp_path,
        baselines={"banks": None, "pantries": str(tmp_path / "pantries.csv"), "schema": {"lat": "lat", "lon": "lon"}},
    )
    probe = (
        "import sys, json\n"
        "before = set(sys.modules)\n"
        "from pantryplan.cli import main\n"
        "for stage in ('ingest', 'matrix', 'place', 'evaluate'):\n"
        "    assert main(['--config', sys.argv[1], stage]) == 0, stage\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe, str(cfg_path)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "pantryplan.hierarchy" in loaded and "pantryplan.evaluate" in loaded
    unused = {"concurrent.futures", "logging", "fractions", "decimal", "http.client", "ssl", "pantryplan.synth"}
    assert not unused & loaded, sorted(unused & loaded)


def test_successive_main_calls_parse_independently(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "COMMANDS", {
        name: (lambda cfg, args: seen.append((cfg["seed"], vars(args))) or ({}, ""), text, family)
        for name, (_, text, family) in cli.COMMANDS.items()
    })
    cfg_path, _ = write_config(tmp_path)
    assert run(["--seed", 7, "--force", "synth", "--clusters", 2, "--output", "a.csv"]) == 0

    def refuse():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", refuse)  # from here main must reuse the first
    assert run(["--config", cfg_path, "place"]) == 0
    assert run(["--threads", 2, "synth"]) == 0
    # a synth flag left out is absent (SynthParams' default holds), and the
    # first call's --clusters does not reach the third
    assert seen == [
        (7, {"config": None, "seed": 7, "threads": None, "out_dir": None, "force": True, "command": "synth",
             "clusters": 2, "output": "a.csv"}),
        (5, {"config": str(cfg_path), "seed": None, "threads": None, "out_dir": None, "force": False,
             "command": "place"}),
        (0, {"config": None, "seed": None, "threads": 2, "out_dir": None, "force": False, "command": "synth",
             "output": "synth.csv"}),
    ]


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


# the exit codes README and ROADMAP document, by error family
DOCUMENTED_EXITS = {ConfigError: 2, IngestError: 2, DistanceError: 3, SolveError: 4, EvaluateError: 5}


@pytest.mark.parametrize("cls", _subclasses(PantryPlanError)[1:], ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_familys_documented_code(monkeypatch, capsys, cls):
    (code,) = {code for family, code in DOCUMENTED_EXITS.items() if issubclass(cls, family)}
    exc = cls.__new__(cls)  # past __init__, whose arguments differ by class
    Exception.__init__(exc, f"a {cls.__name__}")

    def raising(cfg, args):
        raise exc

    for stage in cli.COMMANDS:
        with monkeypatch.context() as patch:
            patch.setitem(cli.COMMANDS, stage, (raising, *cli.COMMANDS[stage][1:]))
            capsys.readouterr()
            assert run([stage]) == code
            assert capsys.readouterr().err == f"error: a {cls.__name__}\n"


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
