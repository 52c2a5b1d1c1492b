"""Output checks: digests of what the program wrote, and independent
oracles for the matrix, the plan and the report.

The oracles recompute from the prepared households with a vectorised
haversine and compare within a tolerance, so they hold for every seed and
survive changes that move the last bits of a distance. The digests are exact
and pin the outputs byte for byte at the seeds recorded in digests.json.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DMAT1"
EARTH_RADIUS_M = 6_371_000.0
METERS_PER_MILE = 1609.344
MATRIX_ATOL_M = 1e-6
REL_TOL = 1e-9
DIGESTS = Path(__file__).with_name("digests.json")


def read_dmat(path) -> tuple[np.ndarray, dict]:
    """(values, trailer) of a DMAT1 file; read here, not through the package."""
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a DMAT1 file")
    rows, cols = struct.unpack_from("<II", data, len(MAGIC))
    off = len(MAGIC) + 8
    values = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=off).reshape(rows, cols)
    off += rows * cols * 8
    (tlen,) = struct.unpack_from("<I", data, off)
    trailer = json.loads(data[off + 4 : off + 4 + tlen].decode("utf-8"))
    return values, trailer


def matrix_digest(path) -> str:
    values, _ = read_dmat(path)
    return hashlib.sha256(values.tobytes()).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_digest(out_dir: Path, output: str) -> str:
    if output == "matrix":
        return matrix_digest(out_dir / "matrix.dmat")
    return file_digest(out_dir / output)


def haversine(a, b) -> np.ndarray:
    """Meters between every [lat, lon] of a and of b, as the package's
    great_circle computes them but vectorised."""
    a = np.radians(np.asarray(a, dtype=np.float64).reshape(-1, 2))
    b = np.radians(np.asarray(b, dtype=np.float64).reshape(-1, 2))
    lat1, lon1 = a[:, :1], a[:, 1:]
    lat2, lon2 = b[:, 0][None, :], b[:, 1][None, :]
    s = np.sin((lat2 - lat1) / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    return EARTH_RADIUS_M * 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def coords(rows) -> np.ndarray:
    return np.array([[float(r["lat"]), float(r["lon"])] for r in rows], dtype=np.float64)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_matrix(dmat, prepared) -> list[str]:
    """Every cell matches the haversine of its trailer's points, and those
    points are exactly the prepared households' locations."""
    values, trailer = read_dmat(dmat)
    src, dst = trailer["sources"], trailer["destinations"]
    problems = []
    want = {tuple(p) for p in coords(prepared).tolist()}
    for side, pts in (("sources", src), ("destinations", dst)):
        if {tuple(p) for p in pts} != want:
            problems.append(f"matrix {side} are not the prepared household locations")
    if values.shape != (len(src), len(dst)):
        problems.append(f"matrix shape {values.shape} does not match its trailer")
    elif not np.allclose(values, haversine(src, dst), rtol=0.0, atol=MATRIX_ATOL_M):
        problems.append("matrix cells differ from the haversine oracle")
    return problems


def check_plan(plan: dict, prepared, k_banks: int, k_pantries: int) -> list[str]:
    """Counts, nearest-pantry assignment, bank membership and both
    objectives, against oracle distances over the prepared rows."""
    n = len(prepared)
    d = haversine(coords(prepared), coords(prepared))
    w = np.array([float(r["weight"]) for r in prepared])
    banks = [b["index"] for b in plan["banks"]]
    pantries = [p["index"] for p in plan["pantries"]]
    h2p = np.asarray(plan["household_to_pantry"])
    problems = []
    if len(set(banks)) != k_banks or len(set(pantries)) != k_pantries:
        return [f"plan has {len(set(banks))} banks and {len(set(pantries))} pantries, want {k_banks}/{k_pantries}"]
    if len(h2p) != n or not set(h2p.tolist()) <= set(pantries):
        return ["household_to_pantry does not map every household to a pantry"]
    served = d[np.arange(n), h2p]
    if np.any(served > d[:, pantries].min(axis=1) + MATRIX_ATOL_M):
        problems.append("a household is not served by its nearest pantry")
    if not _close(plan["level2_objective_m"], float(np.dot(w, served))):
        problems.append("level-2 objective does not match the assignment")
    if not _close(plan["level1_objective_m"], float(np.dot(w, d[:, banks].min(axis=1)))):
        problems.append("level-1 objective does not match nearest-bank service")
    bank_of = {p["index"]: p["bank_index"] for p in plan["pantries"]}
    sorted_banks = sorted(banks)
    for p in pantries:
        nearest = sorted_banks[int(np.argmin(d[p, sorted_banks]))]
        if d[p, bank_of[p]] > d[p, nearest] + MATRIX_ATOL_M:
            problems.append(f"pantry {p} is not in its bank's cluster")
            break
    return problems


def check_report(report: dict, plan: dict, prepared, pantries, banks) -> list[str]:
    """Overall averages and the penalty block, recomputed from the plan."""
    hh = coords(prepared)
    cand = coords([{"lat": p["lat"], "lon": p["lon"]} for p in plan["pantries"]])
    base = coords(pantries)
    overall = report["groups"]["overall"]
    problems = []
    if overall["household_count"] != len(prepared):
        problems.append("report household_count does not match the prepared rows")
    cand_avg = float(np.mean(haversine(hh, cand).min(axis=1))) / METERS_PER_MILE
    base_avg = float(np.mean(haversine(hh, base).min(axis=1))) / METERS_PER_MILE
    if not (_close(overall["candidate_avg_mi"], cand_avg) and _close(overall["baseline_avg_mi"], base_avg)):
        problems.append("report averages differ from the oracle")
    by_index = {b["index"]: b for b in plan["banks"]}
    legs = [
        haversine([p["lat"], p["lon"]], [by_index[p["bank_index"]]["lat"], by_index[p["bank_index"]]["lon"]])[0, 0]
        for p in plan["pantries"]
    ]
    penalty = report["penalty"]
    base_legs = haversine(base, coords(banks)).min(axis=1)
    if penalty is None or not (
        _close(penalty["candidate_avg_mi"], float(np.mean(legs)) / METERS_PER_MILE)
        and _close(penalty["baseline_avg_mi"], float(np.mean(base_legs)) / METERS_PER_MILE)
    ):
        problems.append("report penalty differs from the oracle")
    return problems


def recorded(workload: str, seed: int):
    """Digests recorded for this workload and seed, or None."""
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def record(workload: str, seed: int, digests: dict) -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[str(seed)] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def digest_mismatches(want: dict, got: dict) -> list[str]:
    return [
        f"{key}: digest {got.get(key, 'missing')[:12]} != recorded {want[key][:12]}"
        for key in sorted(want)
        if got.get(key) != want[key]
    ]
