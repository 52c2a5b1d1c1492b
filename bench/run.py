"""pantryplan benchmark: time the pipeline end to end and layer by layer.

    python3 bench/run.py --workload cold_plan --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Workloads are defined in workloads.py
and described in bench/README.md; `--workload all` runs every one. Each run
generates its inputs from --seed, then starts fresh worker processes (see
worker.py): two that only set up, and a main one that sets up and then
repeats the workload's iteration for --seconds. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones from spans recorded
around the package's public functions. Outputs are checked against
oracles, against each other and, at seeds listed in digests.json, against
recorded digests; a mismatch makes the run exit 1. The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 9  # fresh interpreters that set up; setup_s is their median
# The host switches between a full-speed state and one about 1.7x slower, for
# seconds to minutes at a time (README.md, "Host noise"). Every timed piece is
# therefore scaled by the host probe timed next to it (worker.host_probe), to
# the seconds it takes when the probe reads PROBE_REF_S, its full-speed time.
PROBE_REF_S = 0.0033
RUN_LIMIT_S = 170.0
BENCHMARK_JSON = "BENCHMARK.json"


def pinned_env() -> dict:
    env = dict(os.environ)
    threads = "1"  # at most nproc; one keeps numpy's reductions in one order
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["SOURCE_DATE_EPOCH"] = "0"
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(checkout: Path, args, names, nproc: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(checkout.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        src.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": names,
    }


class Stub:
    """The loopback table service (stub.py) in its own process."""

    def __init__(self, src: Path, points, work: Path, env: dict):
        points_file = work / "points.json"
        points_file.write_text(json.dumps(points), encoding="utf-8")
        self.reference = work / "reference.npy"
        self.log = open(work / "stub.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--src", str(src), "--points", str(points_file),
             "--reference", str(self.reference)],
            stdout=subprocess.PIPE, stderr=self.log, env=env, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError(f"table stub did not start; see {work / 'stub.log'}")
        self.url = f"http://127.0.0.1:{int(line)}"

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def run_worker(role, steps, args, src, directory: Path, env, stub_url, deadline):
    spec = {"role": role, "seconds": args.seconds, "trace": bool(args.trace), "setup": steps[0],
            "iteration": steps[1], "stub_url": stub_url}
    (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(directory / "worker.log", "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(src), "spec.json", "result.json"],
                cwd=directory, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return None, "worker timed out"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}; see {directory / 'worker.log'}"
    return json.loads((directory / "result.json").read_text(encoding="utf-8")), None


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile, 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def scaled(seconds: float, probes) -> float:
    """seconds at the host speed where the probe reads PROBE_REF_S, judged
    by the mean of the probes timed next to them."""
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


def iteration_wall(iterations, traced: bool) -> float:
    """Scaled seconds of one iteration: for each stage call, the median of
    its scaled times over the iterations, summed over the calls."""
    calls = zip(*([scaled(s["s"], s["probe_s"]) for s in it["stages"]] for it in iterations if it["traced"] == traced))
    return sum(median(times) for times in calls)


def worker_setup(result) -> float:
    """Scaled seconds of one worker's import and set-up stages."""
    return scaled(result["import_s"], [result["import_probe_s"]]) + sum(
        scaled(s["s"], s["probe_s"]) for s in result["setup_stages"]
    )


def output_checks(w, main_dir: Path, stub) -> list[str]:
    out = main_dir / "out"
    prepared = check.read_rows(out / "prepared.csv")
    if stub is not None:
        import numpy as np

        values, trailer = check.read_dmat(out / "matrix.dmat")
        want = [[float(r["lat"]), float(r["lon"])] for r in prepared]
        if trailer["sources"] != want or not np.array_equal(values, np.load(stub.reference)):
            return ["table matrix is not bit-identical to the stub's great_circle matrix"]
        return []
    problems = check.check_matrix(out / "matrix.dmat", prepared)
    pantries = check.read_rows(main_dir / "pantries.csv")
    banks = check.read_rows(main_dir / "banks.csv")
    for step in w.steps[1]:
        if step["pair"] is None:
            continue
        kept = main_dir / "kept" / (step["label"] or "_")
        plan = json.loads((kept / "plan.json").read_text(encoding="utf-8"))
        report = json.loads((kept / "report.json").read_text(encoding="utf-8"))
        problems += [f"{kept.name}: {p}" for p in check.check_plan(plan, prepared, *step["pair"])]
        problems += [f"{kept.name}: {p}" for p in check.check_report(report, plan, prepared, pantries, banks)]
    return problems


def layer_metrics(results, main, stub_busy) -> dict:
    """Per-layer figures: the median over traced iterations of each figure's
    per-iteration total; a figure no iteration reaches (ingest on
    replan_sweep, say) comes from the set-up units of every worker."""
    traced = [it["unit"] for it in main["iterations"] if it["traced"]]
    iter_units = [main["layers"].get(u, {}) for u in traced]
    setup_units = [r["layers"].get("setup", {}) for r in results]
    names = [m["name"] for m in benchmark_spec()["per_layer"]]
    out = {}
    for name in names:
        for units in (iter_units, setup_units):
            values = [u[name] for u in units if name in u]
            if values:
                out[name] = median(values)
                break
        else:
            out[name] = 0.0
    requests = [ms for u in iter_units for ms in u.get("request_ms", ())]
    out.update({
        "cli.import_s": median([r["import_s"] for r in results]),
        "distance.request_ms.p50": percentile(requests, 0.50),
        "distance.request_ms.p99": percentile(requests, 0.99),
        "distance.stub_busy_s": median(stub_busy),
        "distance.cache_bytes": median([it["cache_bytes"] for it in main["iterations"]]),
        "trace.overhead_frac": iteration_wall(main["iterations"], True) / iteration_wall(main["iterations"], False) - 1.0,
    })
    return {k: out[k] for k in names}


def run_workload(w, args, checkout: Path, env: dict, nproc: int) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    src = checkout / "src"
    work = checkout / ".bench_work" / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    results: list[dict] = []
    problems: list[str] = []
    try:
        rows = workloads.households(w, args.seed)
        if w.provider == "table_api":
            stub = Stub(src, [[r["lat"], r["lon"]] for r in workloads.eligible(rows)], work, env)
        url = stub.url if stub else None
        for rep in range(SETUP_REPS):
            directory = work / f"w{rep}"
            workloads.write_inputs(w, args.seed, rows, directory, url, min(2, nproc))
            role = "main" if rep == SETUP_REPS - 1 else "setup"
            result, error = run_worker(role, w.steps, args, src, directory, env, url, deadline)
            if error:
                problems.append(error)
                break
            results.append(result)
        if len(results) == SETUP_REPS:
            main_dir = work / f"w{SETUP_REPS - 1}"
            # the recorded digests are of full-size runs
            problems += consistency(results, None if args.tiny else check.recorded(w.name, args.seed))
            problems += output_checks(w, main_dir, stub)
            if args.record and not problems:
                check.record(w.name, args.seed, digests_of(results))
            if args.trace:
                shutil.copy(main_dir / "spans.json", results_dir(checkout) / f"{tag(w, args)}-spans.json")
    except RuntimeError as exc:  # the stub did not start
        problems.append(str(exc))
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)
    report = tally(w, args, results, problems)
    report["seconds_total"] = time.monotonic() - started
    return report


def tally(w, args, results, problems) -> dict:
    """Attempted and failed operations, and the metrics of a complete run."""
    complete = len(results) == SETUP_REPS
    iterations = results[-1]["iterations"] if complete else []
    stage_calls = [s for r in results for s in r["setup_stages"]] + [s for it in iterations for s in it["stages"]]
    tiles = w.expected_tiles()
    failed = sum(s["exit"] != 0 for s in stage_calls) + len(problems)
    for it in iterations:
        if it["stub"] is not None:  # refused requests, and requests beyond one per tile (retries)
            failed += it["stub"]["errors"] + max(0, it["stub"]["requests"] - tiles)
    report = {"workload": w.name, "problems": problems, "attempted": max(1, len(stage_calls) + tiles * len(iterations)),
              "failed": failed}
    if not complete:
        return report
    main = results[-1]
    walls = [it["wall_s"] for it in iterations if not it["traced"]]
    if args.trace:
        stub_busy = [it["stub"]["busy_s"] for it in iterations if it["traced"] and it["stub"]]
        report["metrics"] = layer_metrics(results, main, stub_busy)
        report["self_s"] = {u: main["layers"][u]["self_s"] for u in main["layers"]}
    else:
        report["metrics"] = {
            "wall_s": iteration_wall(iterations, False),
            "setup_s": median([worker_setup(r) for r in results]),
            "peak_rss_mb": main["maxrss_kb"] * 1024 / 1e6,
        }
    report.update(
        samples=len(walls),
        wall_s_samples=walls,
        stage_s_samples=[[s["s"] for s in it["stages"]] for it in iterations if not it["traced"]],
        probe_s_samples=[[s["probe_s"] for s in it["stages"]] for it in iterations if not it["traced"]],
        setup_s_samples=[worker_setup(r) for r in results],
    )
    return report


def consistency(results, want) -> list[str]:
    """Every iteration and every worker wrote the same bytes, and they match
    the digests recorded for this seed, if any."""
    main = results[-1]
    first = digests_of(results)
    problems = [f"{key}: {d}" for key, d in first.items() if d.startswith("unreadable")]
    if any(r["setup_digests"] != main["setup_digests"] for r in results):
        problems.append("set-up outputs differ between workers")
    problems += [
        f"{it['unit']}: outputs differ from the first iteration"
        for it in main["iterations"] if it["digests"] != main["iterations"][0]["digests"]
    ]
    if "matrix" in main["setup_digests"] and main["final_digests"].get("matrix") != main["setup_digests"]["matrix"]:
        problems.append("the cached matrix changed during the iterations")
    if want is not None:
        problems += check.digest_mismatches(want, first)
    return problems


def digests_of(results) -> dict:
    main = results[-1]
    return {**main["setup_digests"], **(main["iterations"][0]["digests"] if main["iterations"] else {})}


def results_dir(checkout: Path) -> Path:
    path = checkout / ".bench_work" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def tag(w, args) -> str:
    return f"{w.name}-s{args.seed}-t{args.trace}"


def benchmark_spec() -> dict:
    return json.loads((BENCH.parent / BENCHMARK_JSON).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the main worker")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (self-test only)")
    parser.add_argument("--record", action="store_true", help="record this seed's output digests in digests.json")
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "pantryplan" / "cli.py").is_file() or not (checkout / BENCHMARK_JSON).is_file():
        print("error: run from the root of a pantryplan checkout (src/pantryplan and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.record and args.tiny:
        print("error: digests are recorded at full size only", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = pinned_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env_record = environment(checkout, args, names, nproc)
    print(json.dumps({"env": env_record}), flush=True)

    spec = benchmark_spec()
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reports = []
    for name in names:
        w = workloads.WORKLOADS[name]
        report = run_workload(workloads.tiny(w) if args.tiny else w, args, checkout, env, nproc)
        reports.append(report)
        report["env"] = env_record
        (results_dir(checkout) / f"{tag(w, args)}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        for problem in report["problems"]:
            print(f"{name}: FAILED CHECK: {problem}", flush=True)
        for metric, value in report.get("metrics", {}).items():
            print(f"{name} {metric} = {value:.6g} {unit_of[metric]}", flush=True)
        print(f"{name}: {report.get('samples', 0)} timed iterations, {report['failed']}/{report['attempted']} "
              f"operations failed, {report['seconds_total']:.1f} s", flush=True)

    correct = all(not r["problems"] and r["failed"] == 0 and "metrics" in r for r in reports)
    if len(reports) == 1:
        metrics = reports[0].get("metrics", {})
        metrics = {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit_of[k]}
                   for r in reports for k, v in r.get("metrics", {}).items()}
    if not all("metrics" in r for r in reports):
        return 1  # a worker failed: no result to print
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports), "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
