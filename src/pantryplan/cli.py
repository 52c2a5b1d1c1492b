"""Command-line front end: synth -> ingest -> matrix -> place -> evaluate.

Stages communicate through files in the output directory so an expensive
distance matrix is computed once and reused across placement experiments.
One seed in the config makes the whole chain reproducible; every output
embeds the seed and a hash of the resolved config. Flag precedence is
flags > config file > defaults.

Exit codes: 2 ingest/config, 3 distance, 4 solver, 5 evaluation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from numbers import Real
from pathlib import Path

from . import distance, evaluate, hierarchy, ingest, synth
from .errors import (
    ConfigError,
    DistanceError,
    EvaluateError,
    IngestError,
    PantryPlanError,
    SolveError,
)

EXIT_INGEST = 2
EXIT_DISTANCE = 3
EXIT_SOLVE = 4
EXIT_EVALUATE = 5

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
    ("threads", "an integer >= 1", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1),
    ("out_dir", "a path string", lambda v: isinstance(v, str)),
    ("dataset.path", "a path string or null", _path_or_null),
    ("baselines.pantries", "a path string or null", _path_or_null),
    ("baselines.banks", "a path string or null", _path_or_null),
    ("cities", "an object or null", lambda v: v is None or isinstance(v, dict)),
)


def _is_box(box) -> bool:
    return (
        isinstance(box, list)
        and len(box) == 4
        and all(isinstance(v, Real) and not isinstance(v, bool) for v in box)
    )


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


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

    cfg = DEFAULTS
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh, parse_constant=refuse)
        except FileNotFoundError:
            raise ConfigError(f"no such config file: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(loaded).__name__}")
        cfg = _merge(cfg, loaded)
    cfg = _merge(cfg, overrides)
    _check_keys(cfg, DEFAULTS)
    for key, want, ok in CLI_KEYS:
        section, _, name = key.rpartition(".")
        value = (cfg[section] if section else cfg)[name]
        if not ok(value):
            raise ConfigError(f"config key {key} must be {want}, got {value!r}")
    for label, box in (cfg["cities"] or {}).items():
        if not _is_box(box):
            raise ConfigError(
                f"config key cities.{label} must be [lat_min, lon_min, lat_max, lon_max] numbers, got {box!r}"
            )
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _provenance(cfg: dict) -> str:
    return f"seed={cfg['seed']} config_hash={config_hash(cfg)}"


def _write_json(path, payload: dict, cfg: dict) -> None:
    payload = {"meta": {"seed": cfg["seed"], "config_hash": config_hash(cfg)}, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_geojson(path, collection: dict, cfg: dict) -> None:
    # provenance rides along as a foreign member, which GeoJSON permits
    collection = {**collection, "properties": {"seed": cfg["seed"], "config_hash": config_hash(cfg)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(collection, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_synth(cfg: dict, args) -> None:
    params = synth.SynthParams(
        clusters=args.clusters,
        points_per_cluster=args.points,
        spread_deg=args.spread,
        seed=cfg["seed"],
    )
    households = synth.generate(params)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    ingest.write_households_csv(households, out, header_comment=f"pantryplan synth {_provenance(cfg)}")
    print(f"synth: wrote {len(households)} households to {out}")


def cmd_ingest(cfg: dict, args) -> None:
    ds = cfg["dataset"]
    if not ds["path"]:
        raise ConfigError("dataset.path is required for ingest")
    icfg = ingest.IngestConfig(**cfg["ingest"], seed=cfg["seed"])
    households = ingest.load_households(ds["path"], ingest.ColumnSchema(**ds["schema"]))
    prepared = ingest.prepare(households, icfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / PREPARED_CSV
    ingest.write_households_csv(prepared, path, header_comment=f"pantryplan ingest {_provenance(cfg)}")
    print(f"ingest: {len(households)} read, {len(prepared)} prepared -> {path}")


def _mismatch(matrix: distance.DistanceMatrix, points) -> str | None:
    """Why matrix is not the households x households matrix over points, in
    order, or None when it is."""
    points = tuple(points)
    if len(matrix.sources) != len(points):
        return f"matrix is {len(matrix.sources)} points but {len(points)} households are prepared"
    for side, got in (("sources", matrix.sources), ("destinations", matrix.destinations)):
        if got != points:
            i = next((i for i, (a, b) in enumerate(zip(got, points)) if a != b), min(len(got), len(points)))
            return f"matrix {side} differ from the prepared households at index {i}"
    return None


def cmd_matrix(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    prepared = out_dir / PREPARED_CSV
    if not prepared.exists():
        raise DistanceError(f"prepared households not found at {prepared}; run ingest first")
    households = ingest.load_prepared(prepared)
    points = [h.location for h in households]
    path = out_dir / MATRIX_FILE
    spec = distance.ProviderSpec(**cfg["provider"])

    if path.exists() and not args.force:
        try:
            cached = distance.load_matrix(path)
        except distance.MatrixFormatError as exc:
            why = f"unreadable ({exc})"
        else:
            tag = distance.provider_tag(spec)
            why = _mismatch(cached, points)
            if why is None and cached.provider_tag != tag:
                why = f"built by provider {cached.provider_tag}, config asks for {tag}"
        if why is None:
            print(f"matrix: cache hit at {path}")
            return
        print(f"matrix: rebuilding {path}: {why}")

    matrix = distance.build_matrix(spec, points, points, max_in_flight=cfg["threads"])
    distance.save_matrix(matrix, path, meta={"seed": cfg["seed"], "config_hash": config_hash(cfg)})
    print(f"matrix: {matrix.shape[0]}x{matrix.shape[1]} via {matrix.provider_tag} -> {path}")


def _matrix_and_households(out_dir: Path, error):
    """The cached matrix and the prepared households it must cover, one row
    and one column per household in order; a missing or mismatched matrix
    raises error."""
    matrix_path = out_dir / MATRIX_FILE
    if not matrix_path.exists():
        raise error(f"matrix cache not found at {matrix_path}; run matrix first")
    matrix = distance.load_matrix(matrix_path)
    households = ingest.load_prepared(out_dir / PREPARED_CSV)
    why = _mismatch(matrix, (h.location for h in households))
    if why is not None:
        raise error(f"{matrix_path} was not built from {out_dir / PREPARED_CSV}: {why}; run matrix again")
    return matrix, households


def cmd_place(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    matrix, households = _matrix_and_households(out_dir, SolveError)

    params = hierarchy.HierarchyParams(**cfg["hierarchy"], seed=cfg["seed"])
    weights = [hh.weight for hh in households]
    plan = hierarchy.place_two_level(matrix, params, weights)

    _write_json(out_dir / PLAN_JSON, hierarchy.plan_to_dict(plan, households), cfg)
    _write_geojson(out_dir / PLAN_GEOJSON, hierarchy.plan_to_geojson(plan, households), cfg)
    print(
        f"place: {len(plan.banks)} banks, {len(plan.pantries)} pantries, "
        f"objectives {plan.level1_objective:.1f}/{plan.level2_objective:.1f} m -> {out_dir / PLAN_JSON}"
    )


def _city_groups(households, boxes) -> list:
    if not boxes:
        tagged = [h.city for h in households]
        return tagged if any(t is not None for t in tagged) else None
    labels = []
    for h in households:
        found = None
        for label, (lat_min, lon_min, lat_max, lon_max) in boxes.items():
            if lat_min <= h.location.lat <= lat_max and lon_min <= h.location.lon <= lon_max:
                found = label
                break
        labels.append(found)
    return labels


def _is_row(x, n: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _check_plan(data: dict, plan: hierarchy.PlacementPlan, households, plan_path) -> None:
    """Every index in the plan names one of the n prepared households, no
    bank or pantry is listed twice, every pantry's bank is a bank, every
    household's pantry is a pantry, and every bank and pantry entry carries
    the id and coordinates of the prepared household at its index, so a plan
    placed on other households of the same count is refused."""
    n = len(households)
    for role, indices in (("bank", plan.banks), ("pantry", plan.pantries), ("bank_index", plan.pantry_to_bank.values())):
        for x in indices:
            if not _is_row(x, n):
                raise EvaluateError(f"plan {plan_path}: {role} {x!r} is not a household index in [0, {n})")
    for role, indices in (("bank", plan.banks), ("pantry", plan.pantries)):
        if len(set(indices)) != len(indices):
            raise EvaluateError(f"plan {plan_path}: a {role} index is listed more than once")
    banks = set(plan.banks)
    for p, b in plan.pantry_to_bank.items():
        if b not in banks:
            raise EvaluateError(f"plan {plan_path}: pantry {p} has bank_index {b}, which is not a bank")
    if len(plan.household_to_pantry) != n:
        raise EvaluateError(
            f"plan {plan_path}: household_to_pantry has {len(plan.household_to_pantry)} entries for {n} households"
        )
    pantries = set(plan.pantries)
    for i, p in enumerate(plan.household_to_pantry):
        if not (_is_row(p, n) and p in pantries):
            raise EvaluateError(f"plan {plan_path}: household {i} is assigned {p!r}, which is not a pantry")
    for role, key in (("bank", "banks"), ("pantry", "pantries")):
        for entry in data[key]:
            i = entry["index"]
            got = (entry.get("id"), entry.get("lat"), entry.get("lon"))
            want = (households[i].id, households[i].location.lat, households[i].location.lon)
            if got != want:
                raise EvaluateError(
                    f"plan {plan_path}: {role} {i} has (id, lat, lon) {got!r}, but prepared household {i} "
                    f"has {want!r}; the plan was placed on other households, run place again"
                )


def cmd_evaluate(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    plan_path = out_dir / PLAN_JSON
    if not plan_path.exists():
        raise EvaluateError(f"plan not found at {plan_path}; run place first")
    with open(plan_path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EvaluateError(f"plan {plan_path} is not valid JSON: {exc}") from None
    try:
        plan = hierarchy.plan_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise EvaluateError(f"plan {plan_path} lacks a field or has one of the wrong type: {exc!r}") from None
    matrix, households = _matrix_and_households(out_dir, EvaluateError)
    _check_plan(data, plan, households, plan_path)

    bl = cfg["baselines"]
    if not bl["pantries"]:
        raise EvaluateError("baselines.pantries file is required for evaluate")
    bschema = ingest.ColumnSchema(**bl["schema"])
    baseline = evaluate.FacilitySet(
        label="baseline",
        points=tuple(r.location for r in ingest.load_households(bl["pantries"], bschema)),
    )
    candidate = evaluate.FacilitySet(
        label="candidate",
        points=tuple(households[p].location for p in plan.pantries),
    )

    # candidate pantries are households, so their distances are matrix
    # columns; only the baseline rectangles come from the provider
    spec = distance.ProviderSpec(**cfg["provider"])
    cand_m, _, _ = evaluate.nearest_facility_stats(households, candidate, matrix.values[:, list(plan.pantries)])
    base_m, _, _ = evaluate.nearest_facility_stats(households, baseline, spec)

    penalty = None
    if bl["banks"]:
        bank_rows = ingest.load_households(bl["banks"], bschema)
        banks = evaluate.FacilitySet(label="baseline-banks", points=tuple(r.location for r in bank_rows))
        penalty = evaluate.penalty_report(plan, matrix, banks, baseline, spec)
    groups = evaluate.compare(cand_m, base_m, groups=_city_groups(households, cfg["cities"]))
    report = evaluate.EvaluationReport(groups=groups, penalty=penalty)

    _write_json(out_dir / REPORT_JSON, evaluate.report_to_dict(report), cfg)
    with open(out_dir / REPORT_CSV, "w", encoding="utf-8") as fh:
        fh.write(f"# pantryplan evaluate {_provenance(cfg)}\n")
        fh.write(evaluate.report_to_csv(report))
    _write_geojson(out_dir / HOUSEHOLDS_GEOJSON, evaluate.households_geojson(households, cand_m, base_m), cfg)

    overall = groups["overall"]
    print(
        f"evaluate: candidate {overall.candidate_avg:.2f} mi vs baseline {overall.baseline_avg:.2f} mi "
        f"(saving {overall.saving_abs:.2f} mi, {overall.saving_pct:.1f}%) -> {out_dir / REPORT_JSON}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pantryplan", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="seed for every seeded component")
    parser.add_argument("--threads", type=int, help="bound on concurrent distance requests")
    parser.add_argument("--out-dir", help="pipeline output directory")
    parser.add_argument("--force", action="store_true", help="rebuild outputs even when cached")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic household CSV")
    p_synth.add_argument("--clusters", type=int, default=3)
    p_synth.add_argument("--points", type=int, default=100, help="points per cluster")
    p_synth.add_argument("--spread", type=float, default=0.05, help="blob stddev, degrees")
    p_synth.add_argument("--output", default="synth.csv")

    sub.add_parser("ingest", help="filter, sample and weight the dataset")
    sub.add_parser("matrix", help="build or reuse the household distance matrix")
    sub.add_parser("place", help="run the two-level placement")
    sub.add_parser("evaluate", help="compare the plan against baselines")
    return parser


COMMANDS = {
    "synth": (cmd_synth, EXIT_INGEST),
    "ingest": (cmd_ingest, EXIT_INGEST),
    "matrix": (cmd_matrix, EXIT_DISTANCE),
    "place": (cmd_place, EXIT_SOLVE),
    "evaluate": (cmd_evaluate, EXIT_EVALUATE),
}

_ERROR_EXITS = (
    (IngestError, EXIT_INGEST),
    (ConfigError, EXIT_INGEST),
    (DistanceError, EXIT_DISTANCE),
    (SolveError, EXIT_SOLVE),
    (EvaluateError, EXIT_EVALUATE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir

    command, default_exit = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, overrides)
        command(cfg, args)
    except PantryPlanError as exc:
        for cls, code in _ERROR_EXITS:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return default_exit
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return default_exit
    return 0


if __name__ == "__main__":
    sys.exit(main())
