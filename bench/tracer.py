"""Spans around the package's public functions, recorded from outside.

Each wrapper is installed at the name its caller looks up (for example
`hierarchy.solve`, which `place_two_level` calls, besides `kmedoids.solve`),
so nothing under src/ changes. A span holds its name, the unit of work it
ran in (setup or an iteration), start, end, parent and a few attributes.
Spans stay in memory until the worker writes them out at the end of the run.

`kmedoids.assign` runs tens of thousands of times per solve, so its calls
are folded into a count and a total on the enclosing span instead of being
kept one by one.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager

# span fields: id, parent id, name, unit, start, end, attributes
ID, PARENT, NAME, UNIT, T0, T1, ATTRS = range(7)

BUILD_SPANS = ("distance.build_matrix", "evaluate.build_matrix")
LOAD_SPANS = ("ingest.load_households", "ingest.load_prepared")
STAGES = ("ingest", "matrix", "place", "evaluate")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unit = "setup"
        self._local = threading.local()
        self._main_stack: list[int] = []  # open spans of the creating thread
        self._local.stack = self._main_stack
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self):
        # a pool thread (a table tile) with no open span of its own is
        # working for the main thread's open span
        stack = self._stack() or self._main_stack
        return stack[-1] if stack else None

    def open(self, name: str) -> int:
        parent = self._parent()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([sid, parent, name, self.unit, time.perf_counter(), None, {}])
        self._stack().append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][T1] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield self.spans[sid]
        finally:
            self.close(sid)

    def fold(self, name: str, seconds: float) -> None:
        parent = self._parent()
        if parent is None:
            return
        attrs = self.spans[parent][ATTRS]
        attrs[name + ".calls"] = attrs.get(name + ".calls", 0) + 1
        attrs[name + ".s"] = attrs.get(name + ".s", 0.0) + seconds

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spanned(self, original, name: str, note=None):
        """Wrapper that records a span; note(attrs, bound_args, result) adds
        attributes after the call."""
        sig = inspect.signature(original) if note else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sid)
            if note:
                note(self.spans[sid][ATTRS], sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def folded(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.fold(name, time.perf_counter() - t0)

        return traced

    def counting_solve(self, original):
        """kmedoids.solve with its trace hook counting accepted swaps."""

        @functools.wraps(original)
        def traced(matrix, params, trace=None):
            sid = self.open("kmedoids.solve")
            swaps = 0

            def count(*event):
                nonlocal swaps
                swaps += 1
                if trace is not None:
                    trace(*event)

            try:
                result = original(matrix, params, count)
            finally:
                self.close(sid)
            self.spans[sid][ATTRS].update(swaps=swaps, passes=result.passes)
            return result

        return traced

    def install(self) -> None:
        from pantryplan import distance, evaluate, hierarchy, ingest, kmedoids

        def cells(attrs, bound, result):
            attrs["cells"] = len(bound["sources"]) * len(bound["destinations"])

        def prepared(attrs, bound, result):
            attrs["rows"] = len(result)
            attrs["origins"] = len({h.origin_id for h in result})

        for name in ("load_households", "load_prepared", "write_households_csv"):
            self.patch(ingest, name, self.spanned(getattr(ingest, name), f"ingest.{name}"))
        self.patch(ingest, "prepare", self.spanned(ingest.prepare, "ingest.prepare", prepared))
        self.patch(distance, "build_matrix", self.spanned(distance.build_matrix, "distance.build_matrix", cells))
        self.patch(evaluate, "build_matrix", self.spanned(evaluate.build_matrix, "evaluate.build_matrix", cells))
        for name in ("save_matrix", "load_matrix", "table_request"):
            self.patch(distance, name, self.spanned(getattr(distance, name), f"distance.{name}"))
        self.patch(
            distance.RequestsTransport, "get", self.spanned(distance.RequestsTransport.get, "distance.transport_get")
        )
        self.patch(hierarchy, "place_two_level", self.spanned(hierarchy.place_two_level, "hierarchy.place_two_level"))
        solve = self.counting_solve(kmedoids.solve)
        self.patch(kmedoids, "solve", solve)
        self.patch(hierarchy, "solve", solve)
        self.patch(kmedoids, "assign", self.folded(kmedoids.assign, "kmedoids.assign"))
        for name in ("compare", "penalty_report", "nearest_facility_stats"):
            self.patch(evaluate, name, self.spanned(getattr(evaluate, name), f"evaluate.{name}"))


def _dur(s) -> float:
    return s[T1] - s[T0]


def summarize(spans: list[list]) -> dict:
    """Per-unit layer figures from raw spans.

    A figure is absent from a unit whose spans never reached that layer, so
    the caller can tell 'not exercised' from zero.
    """
    by_id = {s[ID]: s for s in spans}
    units: dict[str, list] = {}
    for s in spans:
        units.setdefault(s[UNIT], []).append(s)

    out = {}
    for unit, group in units.items():
        named: dict[str, list] = {}
        children: dict[int, list] = {}
        for s in group:
            named.setdefault(s[NAME], []).append(s)
            if s[PARENT] is not None:
                children.setdefault(s[PARENT], []).append(s)

        def spans(*names):
            return [s for n in names for s in named.get(n, ())]

        def total(*names):
            return sum(_dur(s) for s in spans(*names))

        def count(*names):
            return len(spans(*names))

        f = {}

        stage_spans = spans(*(f"cli.{st}" for st in STAGES))
        for st in STAGES:
            if count(f"cli.{st}"):
                f[f"cli.{st}_s"] = total(f"cli.{st}")
        if stage_spans:
            f["cli.self_s"] = sum(_dur(s) - _covered(children.get(s[ID], ())) for s in stage_spans)

        loads = [s for s in spans(*LOAD_SPANS) if _parent_name(s, by_id) not in LOAD_SPANS]
        if loads:
            f["ingest.load_s"] = sum(_dur(s) for s in loads)
            f["ingest.csv_parses"] = count("ingest.load_households")
        if count("ingest.prepare"):
            last = named["ingest.prepare"][-1][ATTRS]
            f["ingest.rows_prepared"] = last["rows"]
            f["ingest.origins_unique"] = last["origins"]
            f["ingest.dup_ratio"] = last["rows"] / last["origins"]

        if count(*BUILD_SPANS):
            f["distance.build_s"] = total(*BUILD_SPANS)
            f["distance.build_calls"] = count(*BUILD_SPANS)
            f["distance.cells"] = sum(s[ATTRS]["cells"] for s in spans(*BUILD_SPANS))
            f["distance.cells_per_s"] = f["distance.cells"] / f["distance.build_s"]
        if count("distance.save_matrix"):
            f["distance.save_s"] = total("distance.save_matrix")
        if count("distance.load_matrix"):
            f["distance.load_s"] = total("distance.load_matrix")
            f["distance.load_calls"] = count("distance.load_matrix")
        if count("distance.table_request"):
            tiles = named["distance.table_request"]
            f["distance.tiles"] = len(tiles)
            f["distance.requests"] = count("distance.transport_get")
            f["distance.retries"] = max(0, f["distance.requests"] - len(tiles))
            f["distance.tile_wait_s"] = sum(s[T0] - by_id[s[PARENT]][T0] for s in tiles) / len(tiles)
            f["request_ms"] = [1000.0 * _dur(s) for s in spans("distance.transport_get")]

        places = spans("hierarchy.place_two_level")
        if places:
            level1 = level2 = 0.0
            solves2 = 0
            for p in places:
                solves = [c for c in children.get(p[ID], ()) if c[NAME] == "kmedoids.solve"]
                level1 += sum(_dur(c) for c in solves[:1])
                level2 += sum(_dur(c) for c in solves[1:])
                solves2 += len(solves[1:])
            f.update({"hierarchy.level1_s": level1, "hierarchy.level2_s": level2, "hierarchy.level2_solves": solves2})
        if count("kmedoids.solve"):
            solves = named["kmedoids.solve"]
            assign_calls = sum(s[ATTRS].get("kmedoids.assign.calls", 0) for s in group)
            swaps = sum(s[ATTRS]["swaps"] for s in solves)
            f["kmedoids.solve_s"] = total("kmedoids.solve")
            f["kmedoids.assign_calls"] = assign_calls
            f["kmedoids.assign_s"] = sum(s[ATTRS].get("kmedoids.assign.s", 0.0) for s in group)
            f["kmedoids.swaps"] = swaps
            f["kmedoids.passes"] = sum(s[ATTRS]["passes"] for s in solves)
            f["kmedoids.accept_ratio"] = swaps / assign_calls if assign_calls else 0.0

        if count("evaluate.compare"):
            f["evaluate.compare_s"] = total("evaluate.compare")
        if count("evaluate.penalty_report"):
            f["evaluate.penalty_s"] = total("evaluate.penalty_report")
        if count("evaluate.nearest_facility_stats", "evaluate.build_matrix"):
            f["evaluate.nearest_calls"] = count("evaluate.nearest_facility_stats")
            f["evaluate.matrix_builds"] = count("evaluate.build_matrix")
            f["evaluate.cells"] = sum(s[ATTRS]["cells"] for s in spans("evaluate.build_matrix"))

        f["self_s"] = _self_times(group, children)
        out[unit] = f
    return out


def _parent_name(span, by_id):
    return by_id[span[PARENT]][NAME] if span[PARENT] is not None else None


def _self_times(group, children) -> dict:
    """Per span name: duration minus the time its child spans cover."""
    self_s: dict[str, float] = {}
    for s in group:
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + _dur(s) - _covered(children.get(s[ID], ()))
    return self_s


def _covered(spans) -> float:
    """Length of the union of the spans' intervals; table tiles overlap."""
    covered, end = 0.0, None
    for t0, t1 in sorted((s[T0], s[T1]) for s in spans):
        if end is None or t0 > end:
            covered += t1 - t0
            end = t1
        elif t1 > end:
            covered += t1 - end
            end = t1
    return covered
