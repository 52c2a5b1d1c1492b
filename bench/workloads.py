"""Workload definitions and the inputs they give the program.

Every input is generated here from the workload seed: a household CSV,
baseline pantry and bank CSVs, and one config per (k_banks,
k_pantries_total) pair. The program sees nothing else. Generation is
harness work and is never timed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

INCOME_CAP = 40_000.0
# lognormal incomes, the same parameters as the package's synth generator
INCOME = NormalDist(10.3, 0.5)
CENTER = (39.0, -86.5)
EXTENT_DEG = 1.5
SPREAD_DEG = 0.05
# the layout and solver seed of workloads with reference_layout set
REFERENCE_LAYOUT_SEED = 0
REFERENCE_SOLVER_SEED = 606
TABLE_CHUNK = 100

HOUSEHOLD_SCHEMA = {"lat": "lat", "lon": "lon", "income": "income", "id": "id", "city": "city"}
CONFIG = "cfg.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    households: int  # households that pass the income filter; all are sampled
    blobs: int
    weighting: str  # duplicate | direct
    pairs: tuple  # (k_banks, k_pantries_total) per placement, in sweep order
    baseline_pantries: int
    baseline_banks: int
    provider: str  # great_circle | table_api
    # The swap count of the first-improvement solver is chaotic in its input:
    # on six independent 1000-household layouts the 10/40 solve took
    # 3.1-7.2 s. A workload that places therefore keeps one layout and lets
    # the seed move it by a longitude shift, an isometry of the great-circle
    # metric, so the solver walks the same swaps on every seed while
    # coordinates, ids, matrix bits and baselines still change.
    reference_layout: bool = False

    @property
    def steps(self) -> tuple[list, list]:
        """(setup steps, iteration steps) as worker step dicts."""
        if self.name == "cold_plan":
            return [], [
                _step(CONFIG, "ingest"),
                _step(CONFIG, "matrix", ["matrix"], force=True),
                _step(CONFIG, "place"),
                _step(CONFIG, "evaluate", ["plan.json", "report.json"], pair=self.pairs[0]),
            ]
        if self.name == "replan_sweep":
            setup = [_step(_pair_config(0), "ingest"), _step(_pair_config(0), "matrix", ["matrix"])]
            iteration = []
            for i, (kb, kp) in enumerate(self.pairs):
                label = f"k{kb}-{kp}"
                iteration += [
                    _step(_pair_config(i), "matrix"),
                    _step(_pair_config(i), "place"),
                    _step(_pair_config(i), "evaluate", ["plan.json", "report.json"], label, (kb, kp)),
                ]
            return setup, iteration
        return [_step(CONFIG, "ingest")], [_step(CONFIG, "matrix", ["matrix"], force=True)]

    def expected_tiles(self) -> int:
        if self.provider != "table_api":
            return 0
        side = -(-self.households // (TABLE_CHUNK // 2))
        return side * side


def _step(config: str, stage: str, outputs=(), label: str = "", pair=None, force: bool = False) -> dict:
    """One stage call. Outputs are digested after it; a step with a pair
    wrote the plan and report the oracles check for that pair."""
    argv = ["--config", config] + (["--force"] if force else []) + [stage]
    return {"stage": stage, "argv": argv, "outputs": list(outputs), "label": label, "pair": pair}


def _pair_config(i: int) -> str:
    return f"cfg_{i}.json"


# Sized so that no stage call takes much over 0.6 s at full host speed: the
# host probes around a call only see its host speed if the call is short
# (README.md, "Host noise").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold_plan",
            why="full chain on duplicated rows: great-circle matrix, DMAT1 write, place and evaluate's rectangular builds",
            households=300,
            blobs=3,
            weighting="duplicate",
            pairs=((3, 12),),
            baseline_pantries=176,
            baseline_banks=3,
            provider="great_circle",
            reference_layout=True,
        ),
        Workload(
            name="replan_sweep",
            why="matrix cached, place and evaluate swept over k pairs up to 10/40 on unduplicated rows: solver and DMAT1 reads",
            households=300,
            blobs=3,
            weighting="direct",
            pairs=((3, 12), (5, 20), (10, 40)),
            baseline_pantries=20,
            baseline_banks=3,
            provider="great_circle",
            reference_layout=True,
        ),
        Workload(
            name="table_fetch",
            why="matrix stage only, over HTTP from a loopback table stub: tiling, transport, JSON decoding, tile concurrency",
            households=500,
            blobs=3,
            weighting="direct",
            pairs=((3, 12),),
            baseline_pantries=20,
            baseline_banks=3,
            provider="table_api",
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in a second, for the self-test."""
    pairs = ((2, 4), (3, 6)) if len(w.pairs) > 1 else ((2, 4),)
    return replace(w, households=60, pairs=pairs, baseline_pantries=8, baseline_banks=2)


def _incomes(n: int, rng: random.Random) -> list[float]:
    """n eligible incomes at fixed quantiles below the cap, in seeded order.

    Fixed quantiles fix the duplicated row count for every seed, so the
    matrix size, and with it most of cold_plan's work, does not move.
    """
    below = INCOME.cdf(math.log(INCOME_CAP))
    incomes = [round(math.exp(INCOME.inv_cdf((i + 0.5) / n * below)), 2) for i in range(n)]
    rng.shuffle(incomes)
    return incomes


def _ineligible(n: int, rng: random.Random) -> list[float]:
    below = INCOME.cdf(math.log(INCOME_CAP))
    return [round(math.exp(INCOME.inv_cdf(below + (1 - below) * rng.uniform(0.01, 0.99))), 2) for _ in range(n)]


def households(w: Workload, seed: int) -> list[dict]:
    """Household rows: w.households eligible plus about 40% more above the
    income cap, which ingest filters out. Coordinates are on the 1e-6 degree
    grid the table API URL carries, and distinct."""
    layout = random.Random(REFERENCE_LAYOUT_SEED if w.reference_layout else seed)
    shift = round(random.Random(seed).uniform(-20.0, 20.0), 6) if w.reference_layout else 0.0
    centers = [
        (CENTER[0] + layout.uniform(-EXTENT_DEG, EXTENT_DEG), CENTER[1] + layout.uniform(-EXTENT_DEG, EXTENT_DEG))
        for _ in range(w.blobs)
    ]
    incomes = _incomes(w.households, layout) + _ineligible(w.households * 2 // 5, layout)
    layout.shuffle(incomes)

    rows, seen = [], set()
    for i, income in enumerate(incomes):
        blob = i % w.blobs
        clat, clon = centers[blob]
        while True:
            lat, lon = round(layout.gauss(clat, SPREAD_DEG), 6), round(layout.gauss(clon, SPREAD_DEG), 6)
            if (lat, lon) not in seen:
                seen.add((lat, lon))
                break
        # both terms are on the 1e-6 grid, so distinct points stay distinct
        lon = round(lon + shift, 6)
        rows.append({"id": f"h{seed}-{i}", "lat": lat, "lon": lon, "income": income, "city": f"blob{blob}"})
    return rows


def eligible(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["income"] <= INCOME_CAP]


def facilities(w: Workload, rows: list[dict], count: int, seed: int, salt: str) -> list[dict]:
    """Baseline facilities scattered around the household blobs."""
    rng = random.Random(f"{seed}-{salt}")
    anchors = rows[: w.blobs]
    out = []
    for i in range(count):
        a = anchors[i % len(anchors)]
        out.append({"lat": round(rng.gauss(a["lat"], 0.1), 6), "lon": round(rng.gauss(a["lon"], 0.1), 6)})
    return out


def _write_csv(path: Path, fields, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: repr(r[k]) if isinstance(r[k], float) else r[k] for k in fields})


def config(w: Workload, seed: int, pair: tuple, base_url=None, threads: int = 1) -> dict:
    cfg = {
        "seed": REFERENCE_SOLVER_SEED if w.reference_layout else seed,
        "out_dir": "out",
        "dataset": {"path": "households.csv", "schema": HOUSEHOLD_SCHEMA},
        "ingest": {"income_cap": INCOME_CAP, "sample_size": w.households, "weighting_mode": w.weighting},
        "provider": {"kind": "great_circle"},
        "hierarchy": {"k_banks": pair[0], "k_pantries_total": pair[1]},
        "baselines": {"banks": "banks.csv", "pantries": "pantries.csv", "schema": {"lat": "lat", "lon": "lon"}},
    }
    if w.provider == "table_api":
        cfg["provider"] = {"kind": "table_api", "base_url": base_url, "chunk_size": TABLE_CHUNK}
        cfg["threads"] = threads
    return cfg


def write_inputs(w: Workload, seed: int, rows: list[dict], directory: Path, base_url=None, threads: int = 1) -> None:
    """Write the household and baseline CSVs and every config into directory.

    Config paths are relative, so the config hash embedded in plan.json and
    report.json is the same in every worker directory.
    """
    directory.mkdir(parents=True, exist_ok=True)
    _write_csv(directory / "households.csv", ["id", "lat", "lon", "income", "city"], rows)
    _write_csv(directory / "pantries.csv", ["lat", "lon"], facilities(w, rows, w.baseline_pantries, seed, "pantries"))
    _write_csv(directory / "banks.csv", ["lat", "lon"], facilities(w, rows, w.baseline_banks, seed, "banks"))
    configs = {CONFIG: w.pairs[0]} | {_pair_config(i): p for i, p in enumerate(w.pairs)}
    for name, pair in configs.items():
        cfg = config(w, seed, pair, base_url, threads)
        (directory / name).write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
