"""The cached swap engine walks exactly the trajectory of the reference loop,
which scores every candidate with a full assign(): the same accepted swaps
in the same order with bit-identical objectives, the same clustering, and
the same best-so-far when max_passes runs out."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pantryplan import kmedoids
from pantryplan.errors import ConvergenceError, SolveError
from pantryplan.kmedoids import SolveParams, solve

from conftest import planar_matrix
from reference_solver import reference_solve_core


def outcome(run):
    """(trace events, clustering or None, ConvergenceError.best or None)."""
    events = []
    try:
        return events, run(lambda *e: events.append(e)), None
    except ConvergenceError as exc:
        return events, None, exc.best


@st.composite
def instances(draw):
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = planar_matrix(rng, n)
    if draw(st.booleans()):  # directed: d[i, j] != d[j, i]
        d = d * rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
    if draw(st.booleans()):  # coarse rounding makes many distances tie
        d = np.round(d / 250.0)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        # point j becomes a copy of point i: same row, same column, 0 apart
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d[j, :] = d[i, :]
        d[:, j] = d[:, i]
        d[i, j] = d[j, i] = 0.0
    kind = draw(st.sampled_from(["unit", "real", "integer"]))
    if kind == "unit":
        w = np.ones(n)
    elif kind == "real":
        w = rng.uniform(0.1, 5.0, size=n)
    else:
        w = rng.integers(1, 6, size=n).astype(np.float64)
    k = draw(st.sampled_from(sorted({1, max(1, n - 1), n})) | st.integers(1, n))
    # a cap that only a wrong engine reaches makes a cycling engine fail, not hang
    cap = st.integers(1, 3) | st.just(100)
    params = SolveParams(k=k, weights=w, seed=draw(st.integers(0, 1000)), max_passes=draw(cap))
    return d, w, params


@settings(max_examples=300, deadline=None)
@given(instances(), st.integers(1, 6))
def test_engine_matches_reference_loop(instance, size):
    d, w, params = instance
    # the core, on the raw instance with its duplicates and ties, with
    # blocks small enough that a scan spans several
    with mock.patch.object(kmedoids, "BLOCK", size):
        fast = outcome(lambda trace: kmedoids._solve_core(d, w, params.k, params, trace))
    slow = outcome(lambda trace: reference_solve_core(d, w, params.k, params, trace))
    assert fast == slow
    # each accepted swap lowers the objective by more than epsilon, the
    # first from assign's objective at the first-K start
    previous = kmedoids.assign(d, range(params.k), w)[1]
    for *_, objective in fast[0]:
        assert objective < previous - params.epsilon
        previous = objective
    # solve(), which collapses duplicate points before the core runs, and
    # refuses a k above their number rather than fill it with copies
    distinct = len(np.unique(np.hstack([d, d.T]), axis=0))
    if params.k > distinct:
        with pytest.raises(SolveError, match=rf"^k={params.k} out of range for {distinct} distinct of {len(d)} points$"):
            solve(d, params)
        return
    fast = outcome(lambda trace: solve(d, params, trace))
    with mock.patch.object(kmedoids, "_solve_core", reference_solve_core):
        slow = outcome(lambda trace: solve(d, params, trace))
    assert fast == slow


@pytest.mark.parametrize("k", [2, 5, 9])
def test_engine_matches_reference_on_long_trajectories(k):
    rng = np.random.default_rng(97 + k)
    n = 70
    d = planar_matrix(rng, n)
    w = rng.uniform(0.5, 3.0, size=n)
    params = SolveParams(k=k, weights=w, seed=k, max_passes=100)
    fast = outcome(lambda trace: kmedoids._solve_core(d, w, k, params, trace))
    slow = outcome(lambda trace: reference_solve_core(d, w, k, params, trace))
    assert len(fast[0]) > k  # many accepted swaps
    assert fast == slow


# --- block edges ---------------------------------------------------------------

def block_edges(scan_events, size: int) -> set:
    """Where the engine's blocks fall on the reference's scan. The engine
    cuts the live candidates after a pass's start, and after each accept,
    into blocks of size candidates until a block holds an accept. Names:
    an accept "first", "middle" or "last" in its block; a "stale run" of at
    least size candidates skipped before or inside a block."""
    passes: dict = {}
    for number, _, status in scan_events:
        passes.setdefault(number, []).append(status)
    edges = set()
    for statuses in passes.values():
        start = 0
        while start < len(statuses):
            live = [i for i in range(start, len(statuses)) if statuses[i] != "stale"]
            lo, seen = 0, start
            start = len(statuses)
            while lo < len(live):
                block = live[lo : lo + size]
                marks = [statuses[i] for i in block]
                if block[-1] + 1 - seen - len(block) >= size:
                    edges.add("stale run")
                if "accepted" in marks:
                    at = marks.index("accepted")
                    edges.add("first" if at == 0 else "last" if at == size - 1 else "middle")
                    start = block[at] + 1
                    break
                lo, seen = lo + size, block[-1] + 1
    return edges


def scanned(d, w, params):
    """The reference's outcome and its scan events."""
    events = []
    slow = outcome(lambda trace: reference_solve_core(d, w, params.k, params, trace, lambda *e: events.append(e)))
    return slow, events


@pytest.mark.parametrize("size", [1, 2, 5, kmedoids.BLOCK])
def test_engine_matches_reference_at_block_edges(monkeypatch, size):
    monkeypatch.setattr(kmedoids, "BLOCK", size)
    edges = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 40 if size < 64 else 120
        d = planar_matrix(rng, n)
        if seed % 2:
            d = np.round(d / 250.0)  # ties
        w = rng.uniform(0.5, 3.0, size=n)
        params = SolveParams(k=2 + seed % 5, weights=w, seed=seed, max_passes=100)
        slow, events = scanned(d, w, params)
        assert outcome(lambda trace: kmedoids._solve_core(d, w, params.k, params, trace)) == slow
        edges |= block_edges(events, size)
    expected = {"first", "stale run"} | ({"middle"} if size > 2 else set())
    if 1 < size <= 5:  # a full-size block seldom ends on its accept
        expected.add("last")
    assert edges >= expected


@pytest.mark.parametrize("cells, height", [(120 * 20, 20), (1, 1)])
def test_engine_matches_reference_with_blocks_sized_in_cells(monkeypatch, cells, height):
    # BLOCK_CELLS lowered so that the 120 points get blocks shorter than
    # BLOCK, down to one row
    monkeypatch.setattr(kmedoids, "BLOCK_CELLS", cells)
    n = 120
    assert kmedoids.block_height(n) == height < kmedoids.BLOCK
    for seed, k in [(0, 5), (1, 9)]:
        generator = np.random.default_rng(seed)
        d = planar_matrix(generator, n)
        w = generator.uniform(0.5, 3.0, size=n)
        params = SolveParams(k=k, weights=w, seed=seed, max_passes=100)
        slow, events = scanned(d, w, params)
        assert len(slow[0]) > k  # many accepted swaps
        assert outcome(lambda trace: kmedoids._solve_core(d, w, k, params, trace)) == slow
        # accepts land first in the short blocks and, in those of more than
        # two rows, in their middle; runs of stale candidates span them
        assert block_edges(events, height) >= {"first", "stale run"} | ({"middle"} if height > 2 else set())


@pytest.mark.parametrize("n", [1, 2, 7])
def test_engine_matches_reference_when_k_is_n(n):
    # no point is left to swap in, so the only pass has no candidates
    d = planar_matrix(np.random.default_rng(n), n)
    params = SolveParams(k=n)
    w = np.ones(n)
    fast = outcome(lambda trace: kmedoids._solve_core(d, w, n, params, trace))
    assert fast == scanned(d, w, params)[0]
    assert fast[1].passes == 1 and fast[1].objective == 0.0


def test_engine_matches_reference_with_one_medoid():
    # the nearest other medoid of the only medoid is at infinity, so each
    # candidate's trial vector is its own column
    rng = np.random.default_rng(5)
    d = planar_matrix(rng, 30)
    w = rng.uniform(0.5, 3.0, size=30)
    params = SolveParams(k=1, weights=w, seed=3)
    fast = outcome(lambda trace: kmedoids._solve_core(d, w, 1, params, trace))
    assert fast == scanned(d, w, params)[0]
    assert len(fast[0]) > 1


def test_max_passes_partway_through_a_block_gives_the_reference_best():
    # the capped pass accepts candidates that have live ones after them in
    # their block; the engine scored those with the old medoids and must
    # not have committed any of them
    rng = np.random.default_rng(11)
    d = planar_matrix(rng, 60)
    w = rng.uniform(0.5, 3.0, size=60)
    params = SolveParams(k=4, weights=w, seed=2, max_passes=1)
    slow, events = scanned(d, w, params)
    assert slow[2] is not None  # ConvergenceError.best
    assert block_edges(events, kmedoids.BLOCK) & {"first", "middle"}
    assert outcome(lambda trace: kmedoids._solve_core(d, w, params.k, params, trace)) == slow
