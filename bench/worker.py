"""One fresh interpreter of a benchmark run.

    python3 bench/worker.py SRC spec.json result.json

Run with the worker directory as the working directory. It times
`import pantryplan.cli`, runs the workload's setup stages, and, in the main
worker, runs iterations of the workload's stages until the run's seconds
are spent. Stages run in-process through pantryplan.cli.main. Only time
inside cli.main counts; digests, copies and stub statistics between stages
are harness work. With trace on, iterations alternate untraced and traced,
so the run reports the tracing overhead from its own iterations.

Around every timed piece (the import, each stage call) the worker also times
a fixed host probe, a few milliseconds of float math and small numpy
reductions that never touch the package. run.py scales each piece by the
probes next to it, so the metrics follow the program and not the host's
speed at that moment (see README.md, "Host noise").
"""

import sys
import time


def timed_import(src: str):
    """pantryplan.cli imported from src, and the seconds that took. Runs
    before the worker imports anything else, so the figure is what a fresh
    interpreter pays."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pantryplan.cli

    return pantryplan.cli, time.perf_counter() - t0


if __name__ == "__main__":
    CLI, IMPORT_S = timed_import(sys.argv[1])

import json  # noqa: E402  (after the timed import on purpose)
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
import urllib.request  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by the package)

from check import output_digest  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

PROBE_BLOCK = np.arange(300 * 40, dtype=np.float64).reshape(300, 40)


def host_probe() -> float:
    """Seconds of a fixed piece of work: 3000 haversines in pure Python and
    30 row-minimum reductions of a 300 x 40 array, about the program's mix.
    It reads about 3.3 ms when the host runs at full speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        a = math.radians(39.0 + i * 1e-5)
        b = math.radians(-86.0 + i * 2e-5)
        h = math.sin(a / 2.0) ** 2 + math.cos(a) * math.cos(b) * math.sin(b / 2.0) ** 2
        acc += 2.0 * math.asin(min(1.0, math.sqrt(h)))
    for _ in range(30):
        acc += float(PROBE_BLOCK.min(axis=1).sum())
    return time.perf_counter() - t0


def stub_stats(url):
    if not url:
        return None
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(url + "/stats", timeout=10) as resp:
        return json.load(resp)


def delta(before, after):
    if before is None:
        return None
    return {k: after[k] - before[k] for k in before}


def run_stage(cli, step, tracer):
    """(seconds inside cli.main, exit code) for one stage; an exception that
    escapes cli.main is a failure with exit code -1."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(step["argv"])
        else:
            with tracer.span("cli." + step["stage"]):
                code = cli.main(step["argv"])
    except Exception:  # the stage must not take the run down; the log keeps it
        traceback.print_exc()
        code = -1
    return time.perf_counter() - t0, code


def run_steps(cli, steps, tracer, keep: Path | None):
    stages, digests = [], {}
    for step in steps:
        before = host_probe()
        seconds, code = run_stage(cli, step, tracer)
        stages.append({"stage": step["stage"], "s": seconds, "exit": code, "probe_s": [before, host_probe()]})
        for output in step["outputs"]:
            key = f"{step['label']}/{output}" if step["label"] else output
            try:
                digests[key] = output_digest(Path("out"), output)
            except (OSError, ValueError) as exc:
                digests[key] = f"unreadable: {exc}"
            if keep is not None and output != "matrix":
                (keep / (step["label"] or "_")).mkdir(parents=True, exist_ok=True)
                shutil.copy(Path("out") / output, keep / (step["label"] or "_") / output)
    return stages, digests


def main(cli, import_s: float, spec_path, result_path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(sys.argv[1]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: pantryplan was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    host_probe()  # the first call pays for cold code paths
    import_probe_s = host_probe()
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    setup_stages, setup_digests = run_steps(cli, spec["setup"], tracer, None)
    result = {
        "import_s": import_s,
        "import_probe_s": import_probe_s,
        "setup_stages": setup_stages,
        "setup_digests": setup_digests,
        "iterations": [],
    }

    if spec["role"] == "main":
        start = time.perf_counter()
        deadline = start + spec["seconds"]
        # a traced run needs one untraced and one traced iteration at least;
        # past that, start one only if an iteration of average length fits
        least = 2 if tracer is not None else 1
        i = 0
        while True:
            now = time.perf_counter()
            if i >= least and now + (now - start) / i > deadline:
                break
            traced = tracer is not None and i % 2 == 1
            if tracer is not None:
                tracer.unit = f"it{i}"
                if traced:
                    tracer.install()
                else:
                    tracer.uninstall()
            before = stub_stats(spec["stub_url"])
            stages, digests = run_steps(
                cli, spec["iteration"], tracer if traced else None, Path("kept") if i == 0 else None
            )
            out = Path("out") / "matrix.dmat"
            result["iterations"].append(
                {
                    "unit": f"it{i}",
                    "traced": traced,
                    "wall_s": sum(s["s"] for s in stages),
                    "stages": stages,
                    "digests": digests,
                    "stub": delta(before, stub_stats(spec["stub_url"])),
                    "cache_bytes": out.stat().st_size if out.exists() else 0,
                }
            )
            i += 1
        out = Path("out") / "matrix.dmat"
        result["final_digests"] = {"matrix": output_digest(Path("out"), "matrix")} if out.exists() else {}

    if tracer is not None:
        tracer.uninstall()
        Path("spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["layers"] = summarize(tracer.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(CLI, IMPORT_S, sys.argv[2], sys.argv[3]))
