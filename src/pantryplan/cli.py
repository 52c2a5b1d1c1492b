"""Command-line front end: synth -> ingest -> matrix -> place -> evaluate.

Stages communicate through files in the output directory so an expensive
distance matrix is computed once and reused across placement experiments.
Every file a stage writes (synth's too) is written beside its final name
and renamed over it (_replacing), so a failed stage leaves the previous file
whole. One seed makes the chain reproducible; every output carries _stamp,
the seed and config hash. Flag precedence is flags > config file > defaults.

A JSON value's identity is its canonical text (_canonical: sorted keys, no
whitespace). config_hash hashes it, the GeoJSON files are it and evaluate
compares a plan's sites by it; plan.json and report.json are indented.

Exit codes live in pantryplan.errors, as each error family's exit_code; an
OSError exits with that of the family its stage names in COMMANDS.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import distance, evaluate, hierarchy, ingest
from .errors import ConfigError, DistanceError, EvaluateError, IngestError, PantryPlanError, SolveError, as_python, is_int, is_real

# evaluate's tolerance for a plan's objectives against their recomputation:
# another host's BLAS may sum np.dot in another order
OBJECTIVE_REL_TOL = 1e-9

PREPARED_CSV = "prepared.csv"
MATRIX_FILE = "matrix.dmat"
PLAN_JSON = "plan.json"
PLAN_GEOJSON = "plan.geojson"
REPORT_JSON = "report.json"
REPORT_CSV = "report.csv"
HOUSEHOLDS_GEOJSON = "households.geojson"

# Fields a config hashes only when it sets them: each was read with a
# fallback before it was a checked key, so a default in DEFAULTS would change
# the hash of every config that leaves it out.
UNHASHED = {"provider": ("earth_radius",), "schema": ("income", "id", "city")}


def _section(name: str, cls, **literals) -> dict:
    """Defaults of the config section a stage builds as cls(**section): the
    field defaults of cls, less seed (each stage passes the top-level one)
    and the section's UNHASHED fields, plus literals for the fields cls
    requires. These and the UNHASHED fields are the section's keys."""
    skip = ("seed", *UNHASHED.get(name, ()))
    section = {f.name: f.default for f in fields(cls) if f.name not in skip and f.default is not MISSING}
    return {**section, **literals}


DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "threads": 4,
    "dataset": {"path": None, "schema": _section("schema", ingest.ColumnSchema)},
    "ingest": _section("ingest", ingest.IngestConfig),
    "provider": _section("provider", distance.ProviderSpec),
    "hierarchy": _section("hierarchy", hierarchy.HierarchyParams, k_banks=1, k_pantries_total=1),
    "baselines": {"banks": None, "pantries": None, "schema": _section("schema", ingest.ColumnSchema)},
    "cities": None,  # optional {label: [lat_min, lon_min, lat_max, lon_max]}
}


def _path_or_null(value) -> bool:
    return value is None or isinstance(value, str)


# The CLI's own keys, what each must be and the test of it; the stage that
# builds a section's dataclass checks that section's values.
CLI_KEYS = (
    ("seed", "an integer", is_int),
    ("threads", "an integer >= 1", lambda v: is_int(v) and v >= 1),
    ("out_dir", "a path string", lambda v: isinstance(v, str)),
    ("dataset.path", "a path string or null", _path_or_null),
    ("baselines.pantries", "a path string or null", _path_or_null),
    ("baselines.banks", "a path string or null", _path_or_null),
    ("cities", "an object or null", lambda v: v is None or isinstance(v, dict)),
)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _plain(value):
    """A copy of value's dicts and lists, with every number in them a Python
    number (errors.as_python): config_hash's JSON takes a numpy float as a
    float, but no numpy integer."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, list):
        return list(map(_plain, value))
    return as_python(value)


def _check_keys(cfg: dict, defaults: dict, prefix: str = "", unhashed=()) -> None:
    """Refuse a key that defaults does not hold and that is not one of the
    unhashed fields, and a section that is not an object."""
    for key, value in cfg.items():
        if key not in defaults and key not in unhashed:
            raise ConfigError(f"unknown config key {prefix}{key}")
        if isinstance(defaults.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix}{key} must be an object, got {value!r}")
            _check_keys(value, defaults[key], f"{prefix}{key}.", UNHASHED.get(key, ()))


def load_config(path, overrides: dict) -> dict:
    def refuse(constant):
        raise ConfigError(f"bad config {path}: {constant} is not a JSON number")

    def parse_int(literal):
        # math.isfinite overflows on an int past float range; a JSON int has
        # no leading zeros, so one of over 309 digits is past it
        if len(literal.lstrip("-")) <= 309:
            value = int(literal)
            if abs(value) <= sys.float_info.max:
                return value
        raise ConfigError(f"bad config {path}: the integer {literal[:12]}... is past the range of a float")

    cfg = DEFAULTS
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh, parse_constant=refuse, parse_int=parse_int)
        except FileNotFoundError:
            raise ConfigError(f"no such config file: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(loaded).__name__}")
        cfg = _merge(cfg, loaded)
    # a copy, so that editing the config a caller gets edits no later one
    cfg = _plain(_merge(cfg, overrides))
    _check_keys(cfg, DEFAULTS)
    for key, want, ok in CLI_KEYS:
        section, _, name = key.rpartition(".")
        value = (cfg[section] if section else cfg)[name]
        if not ok(value):
            raise ConfigError(f"config key {key} must be {want}, got {value!r}")
    for label, box in (cfg["cities"] or {}).items():
        if not (isinstance(box, list) and len(box) == 4 and all(map(is_real, box))):
            raise ConfigError(
                f"config key cities.{label} must be [lat_min, lon_min, lat_max, lon_max] numbers, got {box!r}"
            )
    return cfg


def _canonical(value) -> str:
    """value's canonical JSON text, by json.dumps's C encoder. Two JSON values
    have one text iff they are equal node for node and type for type: true
    is not 1, 3.0 is not 3 and -0.0 is not 0.0."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode("utf-8")).hexdigest()[:16]


def _stamp(cfg: dict) -> dict:
    """The provenance every output carries: the seed and the config's hash."""
    return {"seed": cfg["seed"], "config_hash": config_hash(cfg)}


def _provenance(cfg: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in _stamp(cfg).items())


@contextmanager
def _replacing(path: Path):
    """A temporary path beside path, for the with block to write an artifact
    to; it then replaces path in one rename, so a reader sees the previous
    artifact or the whole new one. If the block raises, the temporary file
    is removed and path is left as it was. There is no fsync: this guards
    against a failed or killed run, not against a power loss."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    _write_text(path, json.dumps({"meta": _stamp(cfg), **payload}, sort_keys=True, indent=1) + "\n")


def _write_geojson(path: Path, collection: dict, cfg: dict) -> None:
    # provenance rides along as a foreign member, which GeoJSON permits
    _write_text(path, _canonical({**collection, "properties": _stamp(cfg)}) + "\n")


def cmd_synth(cfg: dict, args) -> None:
    from . import synth  # deferred: no other stage generates households

    given = {name: getattr(args, name) for name in ("clusters", "points_per_cluster", "spread_deg") if name in args}
    households = synth.generate(synth.SynthParams(**given, seed=cfg["seed"]))
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(out) as tmp:
        ingest.write_households_csv(households, tmp, header_comment=f"pantryplan synth {_provenance(cfg)}")
    print(f"synth: wrote {len(households)} households to {out}")


def cmd_ingest(cfg: dict, args) -> None:
    ds = cfg["dataset"]
    if not ds["path"]:
        raise ConfigError("dataset.path is required for ingest")
    icfg = ingest.IngestConfig(**cfg["ingest"], seed=cfg["seed"])
    households = ingest.load_households(ds["path"], ingest.ColumnSchema(**ds["schema"]))
    prepared = ingest.prepare(households, icfg)
    if not prepared:
        raise IngestError(f"{len(households)} households read from {ds['path']}, and the income filter kept none")
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / PREPARED_CSV
    with _replacing(path) as tmp:
        ingest.write_households_csv(prepared, tmp, header_comment=f"pantryplan ingest {_provenance(cfg)}")
    print(f"ingest: {len(households)} read, {len(prepared)} prepared -> {path}")


def cmd_matrix(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    prepared = out_dir / PREPARED_CSV
    if not prepared.exists():
        raise DistanceError(f"prepared households not found at {prepared}; run ingest first")
    points = ingest.load_prepared(prepared).points
    path = out_dir / MATRIX_FILE
    spec = distance.ProviderSpec(**cfg["provider"])

    if path.exists() and not args.force:
        try:
            distance.load_matrix(path, points, distance.provider_tag(spec))
        except distance.MatrixFormatError as exc:
            print(f"matrix: rebuilding {path}: unreadable ({exc})")
        except distance.StaleMatrixError as exc:
            print(f"matrix: rebuilding {exc}")
        else:
            print(f"matrix: cache hit at {path}")
            return

    matrix = distance.build_matrix(spec, points, points, max_in_flight=cfg["threads"])
    with _replacing(path) as tmp:
        distance.save_matrix(matrix, tmp, meta=_stamp(cfg))
    print(f"matrix: {matrix.shape[0]}x{matrix.shape[1]} via {matrix.provider_tag} -> {path}")


def _matrix_and_households(out_dir: Path, spec: distance.ProviderSpec, error):
    """The cached matrix, which load_matrix checks was built over the
    prepared households by spec's provider, and those households as
    load_prepared's HouseholdTable; a missing or stale matrix raises error."""
    matrix_path = out_dir / MATRIX_FILE
    if not matrix_path.exists():
        raise error(f"matrix cache not found at {matrix_path}; run matrix first")
    households = ingest.load_prepared(out_dir / PREPARED_CSV)
    try:
        matrix = distance.load_matrix(matrix_path, households.points, distance.provider_tag(spec))
    except distance.StaleMatrixError as exc:
        raise error(f"{exc}; run matrix again") from None
    return matrix, households


def cmd_place(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    spec = distance.ProviderSpec(**cfg["provider"])
    matrix, households = _matrix_and_households(out_dir, spec, SolveError)

    params = hierarchy.HierarchyParams(**cfg["hierarchy"], seed=cfg["seed"])
    plan = hierarchy.place_two_level(matrix, params, households.weights)

    record = hierarchy.plan_to_dict(plan, households)
    _write_json(out_dir / PLAN_JSON, record, cfg)
    _write_geojson(out_dir / PLAN_GEOJSON, hierarchy.plan_to_geojson(record), cfg)
    print(
        f"place: {len(plan.banks)} banks, {len(plan.pantries)} pantries, "
        f"objectives {plan.level1_objective:.1f}/{plan.level2_objective:.1f} m -> {out_dir / PLAN_JSON}"
    )


def _city_groups(households: ingest.HouseholdTable, boxes) -> list:
    if not boxes:
        tagged = households.cities
        return tagged if any(t is not None for t in tagged) else None
    labels = []
    for p in households.points:
        found = None
        for label, (lat_min, lon_min, lat_max, lon_max) in boxes.items():
            if lat_min <= p.lat <= lat_max and lon_min <= p.lon <= lon_max:
                found = label
                break
        labels.append(found)
    return labels


def _is_count(x, stop=math.inf) -> bool:
    """x is an integer (errors.is_int) in [0, stop)."""
    return is_int(x) and 0 <= x < stop


def _check_plan(data, matrix, households, plan_path) -> hierarchy.PlacementPlan:
    """The plan of the sites plan.json lists, checked against the rest of
    the file. The bank and pantry indices must name prepared households,
    and neither list may be empty or name an index twice. banks, pantries
    and household_to_pantry must be what hierarchy.plan_to_dict writes for
    hierarchy.plan_of_sites over those sites and the prepared weights, by
    canonical text (_canonical): node for node and type for type.
    Both objectives must be JSON floats within a relative 1e-9 of its, and
    the passes counts, one per bank at level 2. A household served at
    distance 0 at both levels adds to neither objective, so its weight goes
    unchecked."""
    n = len(households)
    try:
        sites = {key: [entry["index"] for entry in data[key]] for key in ("banks", "pantries")}
    except (KeyError, TypeError) as exc:
        raise EvaluateError(f"plan {plan_path} lacks a field or has one of the wrong type: {exc!r}") from None
    for key, indices in sites.items():
        for x in indices:
            if not _is_count(x, n):
                raise EvaluateError(f"plan {plan_path}: {key} index {x!r} is not a household index in [0, {n})")
        if not indices or len(set(indices)) != len(indices):
            raise EvaluateError(f"plan {plan_path}: the {key} list is empty or lists an index more than once")
    plan = hierarchy.plan_of_sites(matrix.values, sites["banks"], sites["pantries"], households.weights)
    want = hierarchy.plan_to_dict(plan, households)
    for key in ("banks", "pantries", "household_to_pantry"):
        if _canonical(data.get(key)) != _canonical(want[key]):
            raise EvaluateError(
                f"plan {plan_path}: {key} is not what place writes for these sites on the prepared households; "
                "the plan was placed on other inputs, run place again"
            )
    for key, cost in (("level1_objective_m", plan.level1_objective), ("level2_objective_m", plan.level2_objective)):
        got = data.get(key)
        # place writes floats; an int past float range would overflow isclose
        if type(got) is not float or not math.isclose(got, cost, rel_tol=OBJECTIVE_REL_TOL):
            raise EvaluateError(
                f"plan {plan_path}: {key} is {got!r}, but its assignments cost {cost!r} under the prepared "
                "weights; the plan was placed on other inputs, run place again"
            )
    level2 = data.get("level2_passes")
    if not (_is_count(data.get("level1_passes")) and isinstance(level2, list) and len(level2) == len(plan.banks)
            and all(map(_is_count, level2))):
        raise EvaluateError(
            f"plan {plan_path}: level1_passes and level2_passes are not pass counts, one per bank at level 2"
        )
    return plan


def cmd_evaluate(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    plan_path = out_dir / PLAN_JSON
    if not plan_path.exists():
        raise EvaluateError(f"plan not found at {plan_path}; run place first")
    with open(plan_path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int past int()'s digit limit
            raise EvaluateError(f"plan {plan_path} is not valid JSON: {exc}") from None
    spec = distance.ProviderSpec(**cfg["provider"])
    matrix, households = _matrix_and_households(out_dir, spec, EvaluateError)
    plan = _check_plan(data, matrix, households, plan_path)

    bl = cfg["baselines"]
    if not bl["pantries"]:
        raise EvaluateError("baselines.pantries file is required for evaluate")
    bschema = ingest.ColumnSchema(**bl["schema"])
    baseline = evaluate.FacilitySet(
        label="baseline",
        points=ingest.load_households(bl["pantries"], bschema).points,
    )

    # candidate pantries are households, so a household's distance is the
    # matrix cell at its pantry; only the baseline rectangles use the provider
    threads = cfg["threads"]
    cand_m = matrix.values[range(len(households)), plan.household_to_pantry].tolist()
    base_m, _, _ = evaluate.nearest_facility_stats(households, baseline, spec, max_in_flight=threads)

    penalty = None
    if bl["banks"]:
        bank_points = ingest.load_households(bl["banks"], bschema).points
        banks = evaluate.FacilitySet(label="baseline-banks", points=bank_points)
        penalty = evaluate.penalty_report(plan, matrix, banks, baseline, spec, max_in_flight=threads)
    groups = evaluate.compare(cand_m, base_m, groups=_city_groups(households, cfg["cities"]))
    report = evaluate.EvaluationReport(groups=groups, penalty=penalty)

    _write_json(out_dir / REPORT_JSON, asdict(report), cfg)
    _write_text(out_dir / REPORT_CSV, f"# pantryplan evaluate {_provenance(cfg)}\n" + evaluate.report_to_csv(report))
    _write_geojson(out_dir / HOUSEHOLDS_GEOJSON, evaluate.households_geojson(households, cand_m, base_m), cfg)

    overall = groups[evaluate.OVERALL]
    print(
        f"evaluate: candidate {overall.candidate_avg_mi:.2f} mi vs baseline {overall.baseline_avg_mi:.2f} mi "
        f"(saving {overall.saving_mi:.2f} mi, {overall.saving_pct:.1f}%) -> {out_dir / REPORT_JSON}"
    )


# The stages, in the order a run takes them: each one's command, its help
# line, and the error family whose exit code an OSError in it ends with.
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic household CSV", IngestError),
    "ingest": (cmd_ingest, "filter, sample and weight the dataset", IngestError),
    "matrix": (cmd_matrix, "build or reuse the household distance matrix", DistanceError),
    "place": (cmd_place, "run the two-level placement", SolveError),
    "evaluate": (cmd_evaluate, "compare the plan against baselines", EvaluateError),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pantryplan", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="seed for every seeded component")
    parser.add_argument("--threads", type=int, help="bound on concurrent distance requests")
    parser.add_argument("--out-dir", help="pipeline output directory")
    parser.add_argument("--force", action="store_true", help="rebuild outputs even when cached")
    sub = parser.add_subparsers(dest="command", required=True)
    # a stage flag left out is not in args: synth's leave SynthParams' defaults
    stages = {name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
              for name, (_, text, _) in COMMANDS.items()}
    p_synth = stages["synth"]
    p_synth.add_argument("--clusters", type=int)
    p_synth.add_argument("--points", dest="points_per_cluster", metavar="POINTS", type=int, help="points per cluster")
    p_synth.add_argument("--spread", dest="spread_deg", metavar="SPREAD", type=float, help="blob stddev, degrees")
    p_synth.add_argument("--output", default="synth.csv")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call (about 1 ms) and shared
    by every later main call in the process: parse_args keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: value for key in ("seed", "threads", "out_dir") if (value := getattr(args, key)) is not None}

    command, _, family = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, overrides)
        command(cfg, args)
    except (PantryPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, PantryPlanError) else family.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
