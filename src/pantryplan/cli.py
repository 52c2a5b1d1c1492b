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

DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "threads": 4,
    "dataset": {"path": None, "schema": {"lat": "lat", "lon": "lon"}},
    "ingest": {
        "income_cap": ingest.DEFAULT_INCOME_CAP,
        "sample_size": "all",
        "weighting_mode": "none",
        "weight_cap": ingest.DEFAULT_WEIGHT_CAP,
        "weight_numerator": ingest.DEFAULT_WEIGHT_NUMERATOR,
    },
    "provider": {"kind": "great_circle", "base_url": None, "chunk_size": 100},
    "hierarchy": {"k_banks": 1, "k_pantries_total": 1, "mode": "global_swap", "epsilon": 1e-6, "max_passes": None},
    "baselines": {"banks": None, "pantries": None, "schema": {"lat": "lat", "lon": "lon"}},
    "cities": None,  # optional {label: [lat_min, lon_min, lat_max, lon_max]}
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path, overrides: dict) -> dict:
    cfg = DEFAULTS
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = _merge(cfg, json.load(fh))
        except FileNotFoundError:
            raise ConfigError(f"no such config file: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config {path}: {exc}") from None
    cfg = _merge(cfg, overrides)
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _provenance(cfg: dict) -> str:
    return f"seed={cfg['seed']} config_hash={config_hash(cfg)}"


def _schema(sch: dict) -> ingest.ColumnSchema:
    return ingest.ColumnSchema(
        lat=sch.get("lat", "lat"),
        lon=sch.get("lon", "lon"),
        income=sch.get("income"),
        id=sch.get("id"),
        city=sch.get("city"),
    )


def _provider(cfg: dict) -> distance.ProviderSpec:
    p = cfg["provider"]
    return distance.ProviderSpec(
        kind=p.get("kind", "great_circle"),
        base_url=p.get("base_url"),
        chunk_size=p.get("chunk_size", 100),
        earth_radius=p.get("earth_radius", distance.EARTH_RADIUS_M),
    )


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
    if not ds.get("path"):
        raise ConfigError("dataset.path is required for ingest")
    icfg = ingest.IngestConfig(
        income_cap=cfg["ingest"]["income_cap"],
        sample_size=cfg["ingest"]["sample_size"],
        seed=cfg["seed"],
        weighting_mode=cfg["ingest"]["weighting_mode"],
        weight_cap=cfg["ingest"]["weight_cap"],
        weight_numerator=cfg["ingest"]["weight_numerator"],
    )
    households = ingest.load_households(ds["path"], _schema(ds["schema"]))
    prepared = ingest.prepare(households, icfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / PREPARED_CSV
    ingest.write_households_csv(prepared, path, header_comment=f"pantryplan ingest {_provenance(cfg)}")
    print(f"ingest: {len(households)} read, {len(prepared)} prepared -> {path}")


def cmd_matrix(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    prepared = out_dir / PREPARED_CSV
    if not prepared.exists():
        raise DistanceError(f"prepared households not found at {prepared}; run ingest first")
    households = ingest.load_prepared(prepared)
    points = [h.location for h in households]
    path = out_dir / MATRIX_FILE

    if path.exists() and not args.force:
        try:
            cached = distance.load_matrix(path)
            if cached.shape == (len(points), len(points)):
                print(f"matrix: cache hit at {path}")
                return
        except distance.MatrixFormatError:
            pass  # stale or corrupt: rebuild

    spec = _provider(cfg)
    matrix = distance.build_matrix(spec, points, points, max_in_flight=cfg["threads"])
    distance.save_matrix(matrix, path, meta={"seed": cfg["seed"], "config_hash": config_hash(cfg)})
    print(f"matrix: {matrix.shape[0]}x{matrix.shape[1]} via {matrix.provider_tag} -> {path}")


def cmd_place(cfg: dict, args) -> None:
    out_dir = Path(cfg["out_dir"])
    matrix_path = out_dir / MATRIX_FILE
    if not matrix_path.exists():
        raise SolveError(f"matrix cache not found at {matrix_path}; run matrix first")
    matrix = distance.load_matrix(matrix_path)
    households = ingest.load_prepared(out_dir / PREPARED_CSV)
    if matrix.shape[0] != len(households):
        raise SolveError(f"matrix is {matrix.shape[0]} points but {len(households)} households are prepared")

    h = cfg["hierarchy"]
    opts = hierarchy.SolverOptions(
        mode=h.get("mode", "global_swap"),
        seed=cfg["seed"],
        epsilon=h.get("epsilon", 1e-6),
        max_passes=h.get("max_passes"),
    )
    params = hierarchy.HierarchyParams(
        k_banks=h["k_banks"],
        k_pantries_total=h["k_pantries_total"],
        level1=opts,
        level2=opts,
    )
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
    households = ingest.load_prepared(out_dir / PREPARED_CSV)

    bl = cfg["baselines"]
    if not bl.get("pantries"):
        raise EvaluateError("baselines.pantries file is required for evaluate")
    bschema = _schema(bl.get("schema", {}))
    baseline_rows = ingest.load_households(bl["pantries"], bschema)
    baseline = evaluate.FacilitySet(
        label="baseline",
        points=tuple(r.location for r in baseline_rows),
        city=tuple(r.city or "" for r in baseline_rows) if any(r.city for r in baseline_rows) else None,
    )
    candidate = evaluate.FacilitySet(
        label="candidate",
        points=tuple(households[p].location for p in plan.pantries),
    )

    spec = _provider(cfg)
    groups = _city_groups(households, cfg.get("cities"))
    report = evaluate.compare(candidate, baseline, households, spec, groups=groups)

    penalty = None
    if bl.get("banks"):
        bank_rows = ingest.load_households(bl["banks"], bschema)
        banks = evaluate.FacilitySet(label="baseline-banks", points=tuple(r.location for r in bank_rows))
        penalty = evaluate.penalty_report(plan, households, banks, baseline, spec)
    report = evaluate.EvaluationReport(groups=report.groups, penalty=penalty)

    _write_json(out_dir / REPORT_JSON, evaluate.report_to_dict(report), cfg)
    with open(out_dir / REPORT_CSV, "w", encoding="utf-8") as fh:
        fh.write(f"# pantryplan evaluate {_provenance(cfg)}\n")
        fh.write(evaluate.report_to_csv(report))
    cand_m, _, _ = evaluate.nearest_facility_stats(households, candidate, spec)
    base_m, _, _ = evaluate.nearest_facility_stats(households, baseline, spec)
    _write_geojson(out_dir / HOUSEHOLDS_GEOJSON, evaluate.households_geojson(households, cand_m, base_m), cfg)

    overall = report.groups["overall"]
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
