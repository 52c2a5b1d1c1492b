"""The cached swap engine walks exactly the trajectory of the reference loop,
which scores every candidate with a full assign(): the same accepted swaps
in the same order with bit-identical objectives, the same clustering, and
the same best-so-far when max_passes runs out."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pantryplan import kmedoids
from pantryplan.errors import ConvergenceError
from pantryplan.kmedoids import SolveParams, solve

from conftest import planar_matrix
from reference_solver import reference_solve_core

MODES = ("global_swap", "cluster_screened")


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
    mode = draw(st.sampled_from(MODES))
    # a cap that only a wrong engine reaches makes a cycling engine fail, not hang
    cap = st.integers(1, 3) | st.just(100)
    params = SolveParams(k=k, weights=w, mode=mode, seed=draw(st.integers(0, 1000)), max_passes=draw(cap))
    return d, w, params


@settings(max_examples=300, deadline=None)
@given(instances())
def test_engine_matches_reference_loop(instance):
    d, w, params = instance
    # the core, on the raw instance with its duplicates and ties
    fast = outcome(lambda trace: kmedoids._solve_core(d, w, params.k, params, trace))
    slow = outcome(lambda trace: reference_solve_core(d, w, params.k, params, trace))
    assert fast == slow
    # solve(), which collapses duplicate points before the core runs
    fast = outcome(lambda trace: solve(d, params, trace))
    with mock.patch.object(kmedoids, "_solve_core", reference_solve_core):
        slow = outcome(lambda trace: solve(d, params, trace))
    assert fast == slow


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [2, 5, 9])
def test_engine_matches_reference_on_long_trajectories(mode, k):
    rng = np.random.default_rng(97 + k)
    n = 70
    d = planar_matrix(rng, n)
    w = rng.uniform(0.5, 3.0, size=n)
    params = SolveParams(k=k, weights=w, mode=mode, seed=k, max_passes=100)
    fast = outcome(lambda trace: kmedoids._solve_core(d, w, k, params, trace))
    slow = outcome(lambda trace: reference_solve_core(d, w, k, params, trace))
    assert len(fast[0]) > k  # many accepted swaps
    assert fast == slow
