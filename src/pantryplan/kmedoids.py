"""K-Medoids over a precomputed square distance matrix.

Medoids start as the first K points. Each pass enumerates (medoid,
non-medoid) swap candidates in a seeded-permutation order; in the default
global_swap mode a swap is kept iff the full weighted objective after global
reassignment drops by more than epsilon, so the objective is strictly
decreasing and the solver terminates without an iteration cap. The
cluster_screened mode instead screens a candidate by the total distance within
the medoid's own cluster and then commits only if the global objective does
not increase; it can in principle oscillate, so max_passes is the guard
there.

A candidate is scored in O(n), not by a full O(n*k) reassignment. The
solver keeps, for each medoid m, every point's distance to its nearest
medoid other than m (the nearest and second-nearest caches of FasterPAM,
Schubert & Rousseeuw, arXiv:2008.05171). Swapping m out for p leaves each
point at min(d[i, p], that distance), and the objective is one np.dot of
the weights with that vector. The caches are rebuilt after every accepted
swap, which is committed with assign()'s own assignment and objective.
Under the input contract (every cell finite and nonnegative, a zero
diagonal, checked once per solve) the vector equals the one assign()
gathers, element by element, so every objective is bit-identical to a full
reassignment and the swap trajectory (candidate order, accepted swaps,
final clustering) is the same as scoring each candidate with assign().

A brute-force enumerator doubles as the test oracle for desk-size instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence, Union

import numpy as np

from .distance import DistanceMatrix
from .errors import ConvergenceError, SolveError
from .rng import SplitMix64

DEFAULT_EPSILON = 1e-6
BRUTE_FORCE_LIMIT = 10**6

MatrixLike = Union[DistanceMatrix, np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True)
class Clustering:
    medoids: tuple[int, ...]  # sorted, distinct
    assignment: tuple[int, ...]  # per point, the medoid index serving it
    objective: float  # weighted sum of distances to assigned medoids, meters
    passes: int = 0


@dataclass(frozen=True)
class SolveParams:
    k: int
    weights: Optional[Sequence[float]] = None
    mode: str = "global_swap"  # global_swap | cluster_screened
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    max_passes: Optional[int] = None

    def __post_init__(self):
        require_int("k", self.k)
        if self.mode not in ("global_swap", "cluster_screened"):
            raise SolveError(f"unknown mode {self.mode!r}")
        if not self.epsilon > 0:
            raise SolveError(f"epsilon must be positive, got {self.epsilon}")


def require_int(field: str, value) -> None:
    """Reject a count that is not an integer; bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SolveError(f"{field} must be an integer, got {value!r}")


def as_square_array(matrix: MatrixLike) -> np.ndarray:
    d = matrix.values if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise SolveError(f"need a square points x points matrix, got shape {d.shape}")
    return d


def _check_distances(d: np.ndarray) -> None:
    """The input contract of solve and brute_force_solve: every cell finite
    and nonnegative, and a zero diagonal. DistanceMatrix guarantees this for
    a matrix over one point list; raw arrays are checked here, once per
    solve, not in assign(), which runs on every accepted swap."""
    # NaN propagates through min and max, so a valid matrix passes here
    # without building a points x points mask; the masks only locate a fault
    if d.size and d.min() >= 0 and np.isfinite(d.max()) and not np.diagonal(d).any():
        return
    bad, what = ~np.isfinite(d), "non-finite"
    if not bad.any():
        bad, what = d < 0, "negative"
    if not bad.any():
        bad, what = np.diag(np.diagonal(d) != 0), "nonzero diagonal"
    if bad.any():
        r, c = (int(x) for x in np.argwhere(bad)[0])
        raise SolveError(f"distance matrix has a {what} cell at ({r}, {c}): {d[r, c]!r}")


def _check_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise SolveError(f"weights length {w.shape} does not match {n} points")
    if np.any(w <= 0):
        raise SolveError("weights must all be positive")
    return w


def initialize(n: int, k: int) -> list[int]:
    """Initial medoids are the first k points."""
    if not 1 <= k <= n:
        raise SolveError(f"k={k} out of range for {n} points")
    return list(range(k))


def assign(matrix: MatrixLike, medoids: Sequence[int], weights=None) -> tuple[np.ndarray, float]:
    """Nearest-medoid assignment (ties to the lowest medoid index) and the
    weighted objective. Medoids always serve themselves."""
    d = as_square_array(matrix)
    n = d.shape[0]
    w = _check_weights(weights, n)
    med = sorted(medoids)
    sub = d[:, med]
    # argmin takes the first minimum, which is the lowest medoid index
    choice = np.argmin(sub, axis=1)
    assignment = np.asarray(med, dtype=np.int64)[choice]
    assignment[med] = med  # self-service even if another medoid is colocated
    objective = float(np.dot(w, d[np.arange(n), assignment]))
    return assignment, objective


def objective(matrix: MatrixLike, medoids: Sequence[int], assignment: Sequence[int], weights=None) -> float:
    """Recompute the weighted objective of a given assignment, for audits."""
    d = as_square_array(matrix)
    n = d.shape[0]
    w = _check_weights(weights, n)
    a = np.asarray(assignment, dtype=np.int64)
    return float(np.dot(w, d[np.arange(n), a]))


def _duplicate_classes(d: np.ndarray):
    """Group points whose whole distance profile (row and column) is
    identical. Representatives keep first-occurrence order."""
    seen: dict[bytes, int] = {}
    reps: list[int] = []
    class_of = np.empty(d.shape[0], dtype=np.int64)
    for i in range(d.shape[0]):
        key = d[i, :].tobytes() + d[:, i].tobytes()
        if key in seen:
            class_of[i] = seen[key]
        else:
            seen[key] = len(reps)
            class_of[i] = len(reps)
            reps.append(i)
    return reps, class_of


def _nearest_without(d: np.ndarray, medoids: Sequence[int]) -> dict[int, np.ndarray]:
    """For each medoid m, every point's distance to its nearest medoid other
    than m: the second-nearest distance where m is the nearest, else the
    nearest. inf when m is the only medoid."""
    med = sorted(medoids)
    if len(med) == 1:
        return {med[0]: np.full(d.shape[0], np.inf)}
    sub = d[:, med]
    rows = np.arange(d.shape[0])
    first = np.argmin(sub, axis=1)
    d1 = sub[rows, first]
    sub[rows, first] = np.inf  # sub is a copy (fancy indexing)
    d2 = sub.min(axis=1)
    return {m: np.where(first == j, d2, d1) for j, m in enumerate(med)}


def _solve_core(d: np.ndarray, w: np.ndarray, k: int, params: SolveParams, trace=None) -> Clustering:
    n = d.shape[0]
    medoids = initialize(n, k)
    assignment, obj = assign(d, medoids, w)
    without = _nearest_without(d, medoids)
    rng = SplitMix64(params.seed)
    screened = params.mode == "cluster_screened"
    passes = 0

    while True:
        if params.max_passes is not None and passes >= params.max_passes:
            raise ConvergenceError(
                f"no convergence after {passes} passes",
                best=Clustering(tuple(sorted(medoids)), tuple(int(x) for x in assignment), obj, passes),
            )
        passes += 1
        accepted_any = False

        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        if screened:
            # candidates pair each medoid with the points of its own cluster
            candidates = [
                (m, p) for m in sorted(medoids) for p in range(n) if not in_set[p] and assignment[p] == m
            ]
        else:
            candidates = [(m, p) for m in sorted(medoids) for p in range(n) if not in_set[p]]
        rng.shuffle(candidates)

        current = set(medoids)
        for out, inn in candidates:
            if out not in current or inn in current:
                continue  # stale: the set changed since this pass was enumerated
            if screened:
                members = np.flatnonzero(np.asarray(assignment) == out)
                within_old = float(np.dot(w[members], d[members, out]))
                within_new = float(np.dot(w[members], d[members, inn]))
                if not within_new < within_old - params.epsilon:
                    continue
            # Each point's distance after the swap, elementwise equal to what
            # assign() gathers for the trial set under the input contract.
            # One np.dot per candidate keeps the sum bit-identical to
            # assign()'s; a matrix-vector product over many candidates does not.
            trial_obj = float(np.dot(w, np.minimum(d[:, inn], without[out])))
            ok = trial_obj <= obj if screened else trial_obj < obj - params.epsilon
            if ok:
                medoids = sorted(current - {out} | {inn})
                current = set(medoids)
                assignment, obj = assign(d, medoids, w)
                without = _nearest_without(d, medoids)
                accepted_any = True
                if trace is not None:
                    trace(passes, out, inn, obj)

        if not accepted_any:
            break

    return Clustering(
        medoids=tuple(sorted(medoids)),
        assignment=tuple(int(x) for x in assignment),
        objective=obj,
        passes=passes,
    )


def solve(matrix: MatrixLike, params: SolveParams, trace=None) -> Clustering:
    """Swap-improvement K-Medoids from the first-K start; see module doc.

    Points with identical distance profiles (exact duplicates, as produced
    by weighting-by-duplication) are collapsed to one point carrying their
    combined weight before solving, then expanded back. This makes the
    duplication trick exactly equivalent to direct weights: both instances
    reduce to the same core solve.

    trace, if given, is called as trace(pass_number, out_index, in_index,
    new_objective) after every accepted swap.
    """
    d = as_square_array(matrix)
    _check_distances(d)
    n = d.shape[0]
    w = _check_weights(params.weights, n)
    if not 1 <= params.k <= n:
        raise SolveError(f"k={params.k} out of range for {n} points")

    reps, class_of = _duplicate_classes(d)
    if len(reps) == n:
        return _solve_core(d, w, params.k, params, trace)

    rep_idx = np.asarray(reps)
    dc = d[np.ix_(rep_idx, rep_idx)]
    wc = np.zeros(len(reps))
    np.add.at(wc, class_of, w)
    kc = min(params.k, len(reps))

    def expand(core: Clustering) -> Clustering:
        medoids = [reps[m] for m in core.medoids]
        if params.k > len(reps):
            chosen = set(medoids)
            for i in range(n):
                if len(medoids) == params.k:
                    break
                if i not in chosen:
                    medoids.append(i)
                    chosen.add(i)
        assignment, obj = assign(d, sorted(medoids), w)
        return Clustering(
            medoids=tuple(sorted(medoids)),
            assignment=tuple(int(x) for x in assignment),
            objective=obj,
            passes=core.passes,
        )

    # trace in original indices even though the walk is over representatives
    wrapped = None if trace is None else (lambda p, o, i, obj: trace(p, reps[o], reps[i], obj))
    try:
        core = _solve_core(dc, wc, kc, params, wrapped)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), best=expand(exc.best)) from None
    return expand(core)


def brute_force_solve(matrix: MatrixLike, k: int, weights=None) -> Clustering:
    """Exact optimum by enumerating all k-subsets, lexicographic tie-break."""
    d = as_square_array(matrix)
    _check_distances(d)
    n = d.shape[0]
    if not 1 <= k <= n:
        raise SolveError(f"k={k} out of range for {n} points")
    if comb(n, k) > BRUTE_FORCE_LIMIT:
        raise SolveError(f"C({n},{k}) exceeds the brute-force limit of {BRUTE_FORCE_LIMIT}")
    w = _check_weights(weights, n)

    best = None
    for med in combinations(range(n), k):
        assignment, obj = assign(d, med, w)
        if best is None or obj < best[1]:
            best = (med, obj, assignment)
    med, obj, assignment = best
    return Clustering(
        medoids=tuple(med),
        assignment=tuple(int(x) for x in assignment),
        objective=obj,
        passes=0,
    )
