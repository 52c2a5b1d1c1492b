"""Self-test of the benchmark harness at a tiny size; takes about 35 s.

    python3 bench/selftest.py

Run from the root of a checkout. Checks that the table stub answers bit for
bit with the package's great_circle, that the output checks catch a changed
output, that every metric named in BENCHMARK.json is printed for every
workload, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads
from worker import stub_stats

CHECKOUT = Path.cwd()
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def stub_is_bit_exact(tmp_dir: Path) -> None:
    import numpy as np
    from pantryplan.distance import GeoPoint, ProviderSpec, build_matrix, great_circle

    rows = workloads.eligible(workloads.households(workloads.tiny(workloads.WORKLOADS["table_fetch"]), 7))[:23]
    points = [[r["lat"], r["lon"]] for r in rows]
    stub = run.Stub(CHECKOUT / "src", points, tmp_dir, run.pinned_env())
    try:
        geo = [GeoPoint(lat, lon) for lat, lon in points]
        spec = ProviderSpec(kind="table_api", base_url=stub.url, chunk_size=10)
        got = build_matrix(spec, geo, geo, max_in_flight=2).values
        want = np.array([[great_circle(a, b) for b in geo] for a in geo])
        expect(np.array_equal(got, want), "table stub matrix equals scalar great_circle bit for bit")
        stats = stub_stats(stub.url)
        expect(stats["requests"] == 25 and stats["errors"] == 0, "table stub counted 25 tiles and no errors")
    finally:
        stub.stop()


def gate_catches_changes(tmp_dir: Path) -> None:
    from pantryplan import cli

    w = workloads.tiny(workloads.WORKLOADS["cold_plan"])
    rows = workloads.households(w, 5)
    workloads.write_inputs(w, 5, rows, tmp_dir)
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    cwd = Path.cwd()
    os.chdir(tmp_dir)
    try:
        codes = [cli.main(step["argv"]) for step in w.steps[1]]
    finally:
        os.chdir(cwd)
    expect(codes == [0, 0, 0, 0], "tiny pipeline runs")
    out = tmp_dir / "out"
    digests = {o: check.output_digest(out, o) for o in ("matrix", "plan.json", "report.json")}
    expect(check.digest_mismatches(digests, digests) == [], "digest gate passes unchanged outputs")

    prepared = check.read_rows(out / "prepared.csv")
    plan = json.loads((out / "plan.json").read_text())
    report = json.loads((out / "report.json").read_text())
    pantries, banks = check.read_rows(tmp_dir / "pantries.csv"), check.read_rows(tmp_dir / "banks.csv")
    expect(check.check_matrix(out / "matrix.dmat", prepared) == [], "matrix oracle passes")
    expect(check.check_plan(plan, prepared, *w.pairs[0]) == [], "plan oracle passes")
    expect(check.check_report(report, plan, prepared, pantries, banks) == [], "report oracle passes")

    report["groups"]["overall"]["candidate_avg_mi"] *= 1.0 + 1e-6
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    changed = {**digests, "report.json": check.output_digest(out, "report.json")}
    expect(len(check.digest_mismatches(digests, changed)) == 1, "digest gate catches a changed report")
    expect(check.check_report(report, plan, prepared, pantries, banks) != [], "report oracle catches it too")

    h2p = plan["household_to_pantry"]
    h2p[0] = next(p["index"] for p in plan["pantries"] if p["index"] != h2p[0])
    expect(check.check_plan(plan, prepared, *w.pairs[0]) != [], "plan oracle catches a reassigned household")

    data = bytearray((out / "matrix.dmat").read_bytes())
    data[len(check.MAGIC) + 8 + 8 * 3 + 6] ^= 0x08  # a high mantissa bit of cell (0, 3)
    (out / "matrix.dmat").write_bytes(bytes(data))
    expect(check.matrix_digest(out / "matrix.dmat") != digests["matrix"], "digest gate catches a changed matrix cell")
    expect(check.check_matrix(out / "matrix.dmat", prepared) != [], "matrix oracle catches it too")


def every_metric_printed() -> None:
    spec = json.loads((CHECKOUT / run.BENCHMARK_JSON).read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3", "--seconds", "0.5",
             "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec[key]}
        expect(proc.returncode == 0 and result["correct"], f"tiny run with trace {trace} is correct")
        expect(set(result["metrics"]) == want, f"trace {trace} prints every {key} metric for every workload")
        units = {m["name"]: m["unit"] for m in spec[key]}
        expect(all(v["unit"] == units[k.split(".", 1)[1]] for k, v in result["metrics"].items()), "units match")


def refuses_without_program(tmp_dir: Path) -> None:
    bare = tmp_dir / "bare"
    shutil.copytree(CHECKOUT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / run.BENCHMARK_JSON, bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold_plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/ and prints no result")


def main() -> int:
    sys.path.insert(0, str(CHECKOUT / "src"))
    root = CHECKOUT / ".bench_work"
    root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=root) as tmp:
        tmp = Path(tmp)
        for name, test in (("stub", stub_is_bit_exact), ("gate", gate_catches_changes), ("bare", refuses_without_program)):
            (tmp / name).mkdir()
            test(tmp / name)
    every_metric_printed()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
