import json

import pytest

from pantryplan.cli import config_hash, load_config, main

README_EXAMPLE = {
    "seed": 606,
    "out_dir": "out",
    "dataset": {
        "path": "synth.csv",
        "schema": {"lat": "lat", "lon": "lon", "income": "income", "id": "id", "city": "city"},
    },
    "ingest": {"income_cap": 40000, "sample_size": 500, "weighting_mode": "duplicate",
               "weight_cap": 50, "weight_numerator": 5},
    "provider": {"kind": "great_circle"},
    "hierarchy": {"k_banks": 3, "k_pantries_total": 12, "mode": "global_swap"},
    "baselines": {"banks": "banks.csv", "pantries": "pantries.csv", "schema": {"lat": "lat", "lon": "lon"}},
    "cities": {"springfield": [38.9, -90.1, 39.9, -89.0]},
}

# the shape of the configs bench/workloads.py writes
BENCH_GREAT_CIRCLE = {
    "seed": 3,
    "out_dir": "out",
    "dataset": {
        "path": "households.csv",
        "schema": {"lat": "lat", "lon": "lon", "income": "income", "id": "id", "city": "city"},
    },
    "ingest": {"income_cap": 40000.0, "sample_size": 300, "weighting_mode": "duplicate"},
    "provider": {"kind": "great_circle"},
    "hierarchy": {"k_banks": 2, "k_pantries_total": 8},
    "baselines": {"banks": "banks.csv", "pantries": "pantries.csv", "schema": {"lat": "lat", "lon": "lon"}},
}
BENCH_TABLE_API = {
    **BENCH_GREAT_CIRCLE,
    "ingest": {"income_cap": 40000.0, "sample_size": 100, "weighting_mode": "direct"},
    "provider": {"kind": "table_api", "base_url": "http://127.0.0.1:8123", "chunk_size": 100},
    "threads": 2,
}

# config_hash is embedded in every output, so these values, recorded before
# the config tree was derived from the stage dataclasses, must not move
GOLDEN_HASHES = [
    ({}, "3a55fe3a19ed3fbc"),
    (README_EXAMPLE, "da16d5554b952777"),
    (BENCH_GREAT_CIRCLE, "8f64f6df7d7df574"),
    (BENCH_TABLE_API, "578e8d5cd6c2edd5"),
    ({"provider": {"kind": "great_circle", "earth_radius": 6378137.0}}, "6b318270c3b2abc6"),
    ({"cities": {"north": [39.0, -87.0, 40.5, -85.0]},
      "hierarchy": {"k_banks": 2, "k_pantries_total": 6, "max_passes": 50}}, "81360563e5d7de3f"),
    ({"dataset": {"path": "h.csv", "schema": {"lat": "y", "lon": "x", "id": "key"}},
      "provider": {"chunk_size": 40}, "hierarchy": {"mode": "cluster_screened", "epsilon": 0.5}}, "9b03cc0108306a8e"),
]


@pytest.mark.parametrize("config, expected", GOLDEN_HASHES)
def test_config_hash_is_unchanged(tmp_path, config, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert config_hash(load_config(path, {})) == expected


def test_config_hash_with_flag_overrides_is_unchanged(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BENCH_GREAT_CIRCLE))
    assert config_hash(load_config(path, {"seed": 9, "threads": 2, "out_dir": "elsewhere"})) == "307093cf8c53a278"


# --- refused keys and values ----------------------------------------------------

STAGES = ["ingest", "matrix", "place", "evaluate"]


def runnable_config(tmp_path, **overrides):
    """A config every stage could start from; out_dir is not made."""
    config = {
        "out_dir": str(tmp_path / "out"),
        "dataset": {"path": str(tmp_path / "h.csv"), "schema": {"lat": "lat", "lon": "lon"}},
        "baselines": {"pantries": str(tmp_path / "h.csv")},
    }
    (tmp_path / "h.csv").write_text("lat,lon\n39.0,-86.0\n39.1,-86.1\n39.2,-86.2\n")
    for key, value in overrides.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) and key in config else value
    return config


def test_runnable_config_runs_every_stage(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(runnable_config(tmp_path)))
    assert [main(["--config", str(path), stage]) for stage in STAGES] == [0, 0, 0, 0]
    assert (tmp_path / "out" / "report.json").exists()


def refused(tmp_path, capsys, text, stages=STAGES):
    """Every stage run on the config text exits 2 and writes nothing; the
    messages it printed."""
    path = tmp_path / "config.json"
    path.write_text(text)
    errors = []
    for stage in stages:
        capsys.readouterr()
        assert main(["--config", str(path), stage]) == 2, stage
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        errors.append(err)
    assert not (tmp_path / "out").exists()
    return errors


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"outdir": "elsewhere"}, "outdir"),
        ({"dataset": {"pth": "h.csv"}}, "dataset.pth"),
        ({"dataset": {"schema": {"lat": "lat", "lon": "lon", "ID": "id"}}}, "dataset.schema.ID"),
        ({"ingest": {"weighting": "duplicate"}}, "ingest.weighting"),
        ({"ingest": {"seed": 3}}, "ingest.seed"),
        ({"provider": {"url": "http://localhost:5000"}}, "provider.url"),
        ({"hierarchy": {"k_banks": 1, "k_pantries": 12}}, "hierarchy.k_pantries"),
        ({"hierarchy": {"seed": 3}}, "hierarchy.seed"),
        ({"hierarchy": {"allocation": "proportional_largest_remainder"}}, "hierarchy.allocation"),
        ({"baselines": {"pantry": "p.csv"}}, "baselines.pantry"),
        ({"baselines": {"schema": {"lat": "lat", "lon": "lon", "lng": "lon"}}}, "baselines.schema.lng"),
    ],
)
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, overrides, key):
    config = runnable_config(tmp_path, **overrides)
    for err in refused(tmp_path, capsys, json.dumps(config)):
        assert f"unknown config key {key}\n" in err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"out_dir": 5}, "out_dir"),
        ({"out_dir": None}, "out_dir"),
        ({"dataset": {"path": 2}}, "dataset.path"),
        ({"dataset": {"path": True}}, "dataset.path"),
        ({"baselines": {"pantries": 3}}, "baselines.pantries"),
        ({"baselines": {"banks": ["banks.csv"]}}, "baselines.banks"),
    ],
)
def test_path_key_that_is_not_a_string_exits_2(tmp_path, capsys, overrides, key):
    config = runnable_config(tmp_path, **overrides)
    for err in refused(tmp_path, capsys, json.dumps(config)):
        assert f"config key {key} must be a path string" in err


@pytest.mark.parametrize(
    "section, constant",
    [
        ('"ingest": {"income_cap": NaN}', "NaN"),
        ('"hierarchy": {"epsilon": Infinity}', "Infinity"),
        ('"cities": {"a": [0, 0, 1, -Infinity]}', "-Infinity"),
    ],
)
def test_non_standard_json_constant_exits_2(tmp_path, capsys, section, constant):
    config = json.dumps(runnable_config(tmp_path))
    text = config[:-1] + ", " + section + "}"
    for err in refused(tmp_path, capsys, text):
        assert f"{constant} is not a JSON number" in err
