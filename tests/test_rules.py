"""The package's input rules, each written once: an integer, a real number
(pantryplan.errors), the weight contract (distance.weight_fault), the
income contract (ingest.income_fault) and a coordinate's bounds
(distance.GeoPoint). Every dataclass field and CLI key they cover refuses
the same values with its stage's error family, every weight check names
the same index and every income check refuses the same incomes, a number
past float64's range among them. A numpy number that a rule passes gives
every output that the Python number of its value gives. The CLI writes
its outputs' provenance and canonical JSON once each."""

import argparse
import ast
import json
import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pantryplan import cli
from pantryplan.distance import GeoPoint, ProviderSpec, as_floats, build_matrix, provider_tag, save_matrix, weight_fault
from pantryplan.errors import ConfigError, DistanceError, EvaluateError, IngestError, SolveError
from pantryplan.evaluate import FacilitySet, nearest_facility_stats
from pantryplan.hierarchy import HierarchyParams, place_two_level
from pantryplan.ingest import (ColumnSchema, Household, IngestConfig, income_fault, load_households, load_prepared,
                               prepare, write_households_csv)
from pantryplan.kmedoids import SolveParams, assign, brute_force_solve, solve
from pantryplan.synth import SynthParams, generate

from conftest import line_matrix

SRC = Path(__file__).resolve().parent.parent / "src" / "pantryplan"
LINE = line_matrix([0.0, 1.0, 5.0, 6.0])


def placed(**settings):
    """HierarchyParams' solver settings, which place_two_level checks when
    it builds SolveParams from them."""
    return place_two_level(LINE, HierarchyParams(k_banks=1, k_pantries_total=1, **settings))


# (build, field, error family, message prefix); a field without a default
# that the rule accepts is given VALID's value
INTEGERS = [
    (IngestConfig, "sample_size", IngestError, "sample_size must be a positive integer or 'all'"),
    (IngestConfig, "seed", IngestError, "seed must be an integer"),
    (ProviderSpec, "chunk_size", DistanceError, "chunk_size must be an integer"),
    (lambda **kw: SolveParams(**{"k": 1, **kw}), "k", SolveError, "k must be an integer"),
    (lambda **kw: SolveParams(k=1, **kw), "seed", SolveError, "seed must be an integer"),
    (lambda **kw: SolveParams(k=1, **kw), "max_passes", SolveError, "max_passes must be an integer"),
    (lambda **kw: HierarchyParams(**{"k_banks": 1, "k_pantries_total": 1, **kw}), "k_banks", SolveError,
     "k_banks must be an integer"),
    (lambda **kw: HierarchyParams(**{"k_banks": 1, "k_pantries_total": 1, **kw}), "k_pantries_total",
     SolveError, "k_pantries_total must be an integer"),
    (placed, "seed", SolveError, "seed must be an integer"),
    (placed, "max_passes", SolveError, "max_passes must be an integer"),
    (SynthParams, "clusters", ConfigError, "clusters must be an integer"),
    (SynthParams, "points_per_cluster", ConfigError, "points_per_cluster must be an integer"),
    (SynthParams, "seed", ConfigError, "seed must be an integer"),
]
REALS = [
    (IngestConfig, "income_cap", IngestError),
    (IngestConfig, "weight_cap", IngestError),
    (IngestConfig, "weight_numerator", IngestError),
    (ProviderSpec, "earth_radius", DistanceError),
    (lambda **kw: SolveParams(k=1, **kw), "epsilon", SolveError),
    (placed, "epsilon", SolveError),
    *[(SynthParams, name, ConfigError) for name in
      ("spread_deg", "extent_deg", "center_lat", "center_lon", "income_log_mean", "income_log_sigma")],
    (lambda **kw: Household("h", GeoPoint(39.0, -86.5), **kw), "weight", IngestError),
    (lambda **kw: Household("h", GeoPoint(39.0, -86.5), **kw), "income", IngestError),
]
# a value each field accepts where its default is not one, or where the
# default would not show in the provider tag
VALID = {"sample_size": 3, "k": 2, "k_banks": 1, "k_pantries_total": 1, "max_passes": 3, "earth_radius": 6e6,
         "income": 20000.0}
CLASSES = (IngestConfig, ProviderSpec, SolveParams, HierarchyParams, SynthParams, Household)


def valid(name):
    if name in VALID:
        return VALID[name]
    defaults = {f.name: f.default for cls in CLASSES for f in fields(cls) if f.default not in (MISSING, None)}
    return defaults[name]


def refused(build, name, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(f'{message}, got {value!r}')}$"):
        build(**{name: value})


@pytest.mark.parametrize("value", [True, False, "3", None, 2.5, np.float64(3.0), [3]])
@pytest.mark.parametrize("build, name, error, message", INTEGERS)
def test_an_integer_field_refuses_what_is_not_an_integer(build, name, error, message, value):
    if value is None and name == "max_passes":
        return  # None means no cap
    refused(build, name, value, error, message)


@pytest.mark.parametrize("value", [True, False, "3", None, [3.0]])
@pytest.mark.parametrize("build, name, error", REALS)
def test_a_real_field_refuses_what_is_not_a_real_number(build, name, error, value):
    if value is None and name == "income":
        return  # None means unknown
    refused(build, name, value, error, f"{name} must be a real number")


@pytest.mark.parametrize("build, name, error, message", INTEGERS)
def test_an_integer_field_takes_a_numpy_integer(build, name, error, message):
    built = build(**{name: np.int64(valid(name))})
    if hasattr(built, name):  # not so for placed's plan
        assert getattr(built, name) == valid(name) and type(getattr(built, name)) is int


@pytest.mark.parametrize("build, name, error", REALS)
def test_a_real_field_takes_a_numpy_float(build, name, error):
    built = build(**{name: np.float64(valid(name))})
    if hasattr(built, name):
        assert getattr(built, name) == valid(name) and type(getattr(built, name)) is float


# the first household's weight is capped at the default weight_cap of 50
HOUSEHOLDS = [Household(f"h{i}", GeoPoint(39.0 + i / 100, -86.5 + i / 50), income)
              for i, income in enumerate((500.0, 20000.0, 35000.0, 9000.0, None))]


def config_at(name: str, value):
    """Overrides that set the config key called name, or {} if none is."""
    if name in cli.DEFAULTS:
        return {name: value}
    for section in ("ingest", "provider", "hierarchy"):
        if name in cli.DEFAULTS[section] or name in cli.UNHASHED.get(section, ()):
            return {section: {name: value}}
    return {}


def outputs(here: Path, monkeypatch, build, name, value) -> list:
    """What value reaches as the field called name: the object build makes;
    for IngestConfig, the prepared.csv of HOUSEHOLDS under direct weights;
    for a Household, the households CSV of it;
    for ProviderSpec, the provider tag and the DMAT1 file of their points;
    and for a config key, the config hash and the prepared.csv and DMAT1
    file that ingest and matrix write. Files go to here, the working
    directory, so configs name the same paths."""
    here.mkdir()
    monkeypatch.chdir(here)
    built = build(**{name: value})
    found = [repr(built)]
    if isinstance(built, IngestConfig):
        write_households_csv(prepare(HOUSEHOLDS, replace(built, weighting_mode="direct")), "prepared.csv")
    if isinstance(built, Household):
        write_households_csv([built], "households.csv")
    if isinstance(built, ProviderSpec):
        found.append(provider_tag(built))
        points = [h.location for h in HOUSEHOLDS]
        save_matrix(build_matrix(built, points, points), "matrix.dmat")
    if overrides := config_at(name, value):
        write_households_csv(HOUSEHOLDS, "households.csv")
        Path("run.json").write_text(json.dumps({"out_dir": "out", "ingest": {"weighting_mode": "direct"}, "dataset": {
            "path": "households.csv", "schema": {"income": "income", "id": "id"}}}))
        cfg = cli.load_config("run.json", overrides)
        found.append(cli.config_hash(cfg))
        cli.cmd_ingest(cfg, None)
        cli.cmd_matrix(cfg, argparse.Namespace(force=True))
    return found + [(str(p), p.read_bytes()) for p in sorted(Path().rglob("*")) if p.is_file()]


@pytest.mark.parametrize("build, name", [row[:2] for row in INTEGERS + REALS])
def test_a_numpy_number_gives_what_its_python_number_gives(tmp_path, monkeypatch, build, name):
    plain = valid(name)
    twin = (np.int64 if isinstance(plain, int) else np.float64)(plain)
    assert outputs(tmp_path / "numpy", monkeypatch, build, name, twin) == outputs(
        tmp_path / "python", monkeypatch, build, name, plain)


def test_numpy_numbers_run_each_stage_as_python_numbers_do():
    households = generate(SynthParams(clusters=np.int64(2), points_per_cluster=np.int64(6), seed=np.int64(4)))
    assert households == generate(SynthParams(clusters=2, points_per_cluster=6, seed=4))
    as_numpy = IngestConfig(sample_size=np.int64(8), seed=np.int64(3), weighting_mode="duplicate",
                            weight_cap=np.float64(50.0))
    plain = IngestConfig(sample_size=8, seed=3, weighting_mode="duplicate", weight_cap=50.0)
    assert list(prepare(households, as_numpy)) == list(prepare(households, plain))
    d = line_matrix([0.0, 1.0, 5.0, 6.0, 9.0, 12.0])
    assert solve(d, SolveParams(k=np.int64(2), seed=np.int64(7), max_passes=np.int64(50))) == solve(
        d, SolveParams(k=2, seed=7, max_passes=50))


@pytest.mark.parametrize("value", [True, "3", None, 2.5, [3]])
@pytest.mark.parametrize("key, want", [("seed", "an integer"), ("threads", "an integer >= 1")])
def test_the_cli_integer_keys_refuse_what_is_not_an_integer(key, want, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(f'config key {key} must be {want}, got {value!r}')}$"):
        cli.load_config(None, {key: value})


@pytest.mark.parametrize("key", ["seed", "threads"])
def test_the_cli_integer_keys_take_a_numpy_integer(key):
    cfg = cli.load_config(None, {key: np.int64(3)})
    assert type(cfg[key]) is int and cli.config_hash(cfg) == cli.config_hash(cli.load_config(None, {key: 3}))


def test_a_city_box_takes_numpy_floats_and_refuses_a_bool():
    box = [np.float64(39.0), -86.5, 40, -85.0]
    assert cli.load_config(None, {"cities": {"a": box}})["cities"]["a"] == box
    with pytest.raises(ConfigError, match=r"^config key cities\.a must be \[lat_min"):
        cli.load_config(None, {"cities": {"a": [39.0, -86.5, True, -85.0]}})


# --- the weight contract --------------------------------------------------------

SPECIAL = [0.0, -0.0, -1.0, -5e-324, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf, 1.0, 1e308]


def first_bad(weights):
    """The scalar contract: the first index whose weight is not in (0, inf)."""
    return next((i for i, w in enumerate(weights) if not 0 < w < math.inf), None)


@pytest.mark.parametrize("value", SPECIAL)
def test_weight_fault_on_one_weight(value):
    assert weight_fault([value]) == first_bad([value])
    assert weight_fault(np.array([2.0, value, -1.0])) == (1 if first_bad([value]) == 0 else 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=12))
def test_weight_fault_agrees_with_the_scalar_contract(weights):
    assert weight_fault(weights) == first_bad(weights)
    assert weight_fault(np.array(weights, dtype=np.float64)) == first_bad(weights)


@pytest.mark.parametrize("bad", [0.0, -0.0, -2.0, -5e-324, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 2, 3])
def test_every_weight_check_names_the_same_first_bad_weight(tmp_path, bad, at):
    weights = [1.0, 2.0, 0.5, 3.0]
    weights[at] = bad
    if at < 3:
        weights[3] = math.nan  # a later fault, not the one named
    solver = f"weights must all be positive and finite; weight {at} is {bad}"
    with pytest.raises(SolveError, match=f"^{re.escape(solver)}$"):
        solve(LINE, SolveParams(k=1, weights=weights))
    with pytest.raises(SolveError, match=f"^{re.escape(solver)}$"):
        assign(LINE, [0], weights)
    households = [Household(f"h{i}", GeoPoint(0.0, float(i))) for i in range(4)]
    with pytest.raises(EvaluateError, match=f"^{re.escape(f'weight {at} must be positive and finite, got {bad!r}')}$"):
        nearest_facility_stats(households, FacilitySet("f", (GeoPoint(0.0, 0.5),)), ProviderSpec(), weights=weights)
    path = tmp_path / "prepared.csv"
    rows = "".join(f"h{i},0.0,{i}.0,,{w!r},h{i},\n" for i, w in enumerate(weights))
    path.write_text("id,lat,lon,income,weight,origin_id,city\n" + rows)
    line = f"line {at + 2}: weight must be positive and finite, got {repr(bad)!r}"  # the cell's text
    with pytest.raises(IngestError, match=f"^{re.escape(line)}$"):
        load_prepared(path)


# --- the income contract --------------------------------------------------------

def first_bad_income(incomes):
    """The scalar contract: the first index whose income is known and not
    finite and nonnegative."""
    return next((i for i, x in enumerate(incomes) if x is not None and not (math.isfinite(x) and x >= 0)), None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True), max_size=12))
def test_income_fault_agrees_with_the_scalar_contract(incomes):
    assert income_fault(incomes) == first_bad_income(incomes)
    assert income_fault(tuple(incomes)) == first_bad_income(incomes)


@pytest.mark.parametrize("bad", [-2.0, -5e-324, math.nan, math.inf, -math.inf])
def test_every_income_check_refuses_the_same_incomes(tmp_path, bad):
    household = f"household h: income must be finite and nonnegative, got {bad}"
    with pytest.raises(IngestError, match=f"^{re.escape(household)}$"):
        Household("h", GeoPoint(39.0, -86.5), bad)
    path = tmp_path / "households.csv"
    path.write_text(f"id,lat,lon,income,weight,origin_id,city\na,39.0,-86.5,,1.0,a,\nb,39.0,-86.5,{bad!r},1.0,b,\n")
    line = f"line 3: income must be finite and nonnegative, got {repr(bad)!r}"  # the cell's text
    with pytest.raises(IngestError, match=f"^{re.escape(line)}$"):
        load_households(path, ColumnSchema(income="income", id="id"))
    with pytest.raises(IngestError, match=f"^{re.escape(line)}$"):
        load_prepared(path)


# --- numbers past float64's range ---------------------------------------------------

def with_weight(value):
    return [1.0, value, 2.0, 0.5]


SOLVER_MESSAGE = "weights must all be positive and finite; weight 1 is {}"


@pytest.mark.parametrize("value", [10**400, -10**400])
@pytest.mark.parametrize("check, error, message", [
    (lambda v: Household("h", GeoPoint(0.0, 0.0), weight=v), IngestError,
     "household h: weight must be positive and finite, got {}"),
    (lambda v: Household("h", GeoPoint(0.0, 0.0), income=v), IngestError,
     "household h: income must be finite and nonnegative, got {}"),
    (lambda v: solve(LINE, SolveParams(k=1, weights=with_weight(v))), SolveError, SOLVER_MESSAGE),
    (lambda v: assign(LINE, [0], with_weight(v)), SolveError, SOLVER_MESSAGE),
    (lambda v: brute_force_solve(LINE, 1, with_weight(v)), SolveError, SOLVER_MESSAGE),
    (lambda v: place_two_level(LINE, HierarchyParams(k_banks=1, k_pantries_total=1), with_weight(v)), SolveError,
     SOLVER_MESSAGE),
    (lambda v: nearest_facility_stats([Household(f"h{i}", GeoPoint(0.0, float(i))) for i in range(4)],
                                      FacilitySet("f", (GeoPoint(0.0, 0.5),)), ProviderSpec(), weights=with_weight(v)),
     EvaluateError, "weight 1 must be positive and finite, got {!r}"),
])
def test_a_number_past_float_range_is_refused_as_not_finite(check, error, message, value):
    # numpy raises OverflowError for the integer; the contracts read it as
    # inf of its sign, and each entry point raises its own family's error
    infinite = math.inf if value > 0 else -math.inf
    assert as_floats([None, value, 1]).tolist()[1:] == [infinite, 1.0]
    assert weight_fault(with_weight(value)) == 1 and income_fault([None, value]) == 1
    with pytest.raises(error, match=f"^{re.escape(message.format(infinite))}$"):
        check(value)


# --- each rule is written once ----------------------------------------------------

def is_inf(node) -> bool:
    """Whether node spells math.inf, np.inf or numpy.inf."""
    return (isinstance(node, ast.Attribute) and node.attr == "inf" and isinstance(node.value, ast.Name)
            and node.value.id in ("math", "np", "numpy"))


def rule_copies(src: Path) -> list:
    """Where a module of src other than errors.py spells the bool exclusion,
    isinstance(..., bool), or imports numbers, and where one other than
    distance.py compares a value with math.inf or np.inf (the weight
    contract's bound) or spells a coordinate bound, the number 90 or 180, as
    'file:line what'."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and path.name != "distance.py":
                if any(map(is_inf, [node.left, *node.comparators])):
                    found.append((path.name, node.lineno, "comparison with inf"))
            if isinstance(node, ast.Constant) and path.name != "distance.py":
                if type(node.value) in (int, float) and node.value in (90, 180):
                    found.append((path.name, node.lineno, "coordinate bound"))
            if path.name == "errors.py":
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                kinds = node.args[1:2]
                if kinds and isinstance(kinds[0], ast.Tuple):
                    kinds = kinds[0].elts
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    found.append((path.name, node.lineno, "isinstance(..., bool)"))
            elif isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
                found.append((path.name, node.lineno, "import numbers"))
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.append((path.name, node.lineno, "from numbers import"))
    return [f"{name}:{line} {what}" for name, line, what in sorted(found)]


def test_the_number_rules_are_written_only_in_errors():
    assert rule_copies(SRC) == []


def test_the_rule_scan_finds_a_copy(tmp_path):
    (tmp_path / "errors.py").write_text("import numbers\nisinstance(1, bool)\n")
    (tmp_path / "distance.py").write_text("0 < w < math.inf\n-90.0 <= lat <= 90.0\n")
    (tmp_path / "m.py").write_text("from numbers import Real\nisinstance(x, (int, bool))\nimport os, numbers\n"
                                   "if not 0 < w < math.inf: pass\nw.max() < np.inf\nnumpy.inf > w\n"
                                   "min(180.0, lon)\nlat > -90\n'90', 90j, 45\n")
    assert rule_copies(tmp_path) == [
        "m.py:1 from numbers import", "m.py:2 isinstance(..., bool)", "m.py:3 import numbers",
        "m.py:4 comparison with inf", "m.py:5 comparison with inf", "m.py:6 comparison with inf",
        "m.py:7 coordinate bound", "m.py:8 coordinate bound",
    ]


def test_cli_writes_each_output_form_once():
    # one canonical json.dumps, no streaming json.dump, one stamp dict and
    # one open for writing, in the text writer
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    json_calls = [(c.func.attr, {k.arg for k in c.keywords}) for c in calls if isinstance(c.func, ast.Attribute)
                  and isinstance(c.func.value, ast.Name) and c.func.value.id == "json"]
    assert [name for name, keywords in json_calls if "separators" in keywords] == ["dumps"]
    assert "dump" not in [name for name, _ in json_calls]
    stamps = [node for node in ast.walk(tree) if isinstance(node, ast.Dict)
              and [getattr(k, "value", None) for k in node.keys] == ["seed", "config_hash"]]
    assert len(stamps) == 1
    writes = [c for c in calls if isinstance(c.func, ast.Name) and c.func.id == "open"
              and any(isinstance(a, ast.Constant) and "w" in str(a.value) for a in c.args[1:2])]
    assert len(writes) == 1 and not hasattr(cli, "_same_json")
