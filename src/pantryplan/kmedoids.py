"""K-Medoids over a precomputed square distance matrix.

Medoids start as the first K points. Each pass enumerates (medoid,
non-medoid) swap candidates in a seeded-permutation order, and a swap is
kept iff the full weighted objective after global reassignment drops by
more than epsilon: the first-improvement global swap, the one rule (mode
"global_swap"). The objective is strictly decreasing, so the solver
terminates without an iteration cap; max_passes is a caller's cap on the
passes, and a ConvergenceError carries the best clustering when it runs out.

A candidate is scored in O(n), not by a full O(n*k) reassignment. The
solver keeps, for each medoid m, every point's distance to its nearest
medoid other than m (the nearest and second-nearest caches of FasterPAM,
Schubert & Rousseeuw, arXiv:2008.05171). Swapping m out for p leaves each
point at min(d[i, p], that distance), and the objective is one dot
product of the weights with that vector. After every accepted swap the
objective and those caches, all the scan reads, are rebuilt from one gather
of the medoids' columns by _nearest, the nearest-medoid kernel that assign()
calls too, so the objective is assign()'s own sum; the assignment is built
from the last such gather when the solve returns or runs out of passes.
Under the input contract (distance.matrix_fault's: every cell finite and
nonnegative, a zero diagonal; checked once per solve) a candidate's vector
equals the one assign() would serve after the swap, element by element, so
every score is bit-identical to a full reassignment and the swap trajectory
(candidate order, accepted swaps, final clustering) is the same as scoring
each candidate with assign().

Candidates are scored in blocks. Candidate c of a pass is (the
(c // (n - k))-th medoid, the (c % (n - k))-th non-medoid), and the pass
takes them in the order rng.SplitMix64.permutation gives: the Fisher-Yates
shuffle of range(k * (n - k)) by one splitmix64 draw per swap, built from
one block of draws without a swap loop. The scan drops the stale
candidates after the pass's start, or after the last accept, with one
mask, and scores the live ones a block at a time: the matrix columns of
their points and the cached rows of their medoids are gathered into
preallocated buffers, cut by one np.minimum, and every weighted sum comes
from one np.matmul(trial[:, None, :], w[:, None]). numpy sums each
(1, n) @ (n, 1) product of that stack with the dot routine w.dot and
np.dot call, so each score has the bits of its own np.dot; a (b, n) @ (n,)
matrix-vector product sums in another order and does not. The first
candidate of the block that passes is accepted and the scan resumes right
after it, so the same candidates are scored and accepted as one at a time.
A block holds block_height(n) candidates: BLOCK_CELLS // n, within
[1, BLOCK], so 64 rows up to n = 750 and fewer above, where a tall
block's scores after its accept are wasted work (the sweep, by script, is
in CHANGES.md; no benchmark workload has n above 750 yet). The height
changes only how many scores are computed at once, never which candidate
is accepted. The columns are gathered as rows of d itself when d equals
its transpose bit for bit (a great-circle matrix does), else of one
transposed copy.

solve collapses points with identical rows and columns (the copies of
duplication weighting) into one weighted point before the core solve. Two
such points are 0 apart both ways, so only points with an off-diagonal zero
are looked at; on distinct points the scan is one comparison of the matrix
with 0. Each such point is keyed by the CRC32 of its row's bytes, read in
place. A key shared with an earlier representative is confirmed by
comparing bytes (as float == would take -0.0 for 0.0): the rows, and unless
the matrix equals its transpose bit for bit also the columns, so a column
is read only to confirm. The scan keeps the representatives' indices and
the keys, and the bytes of the one representative it last compared with,
so the copies in a run (as duplication weighting writes them) read their
representative once; never a copy of every row or column.
Bit symmetry is decided once per solve, for the scan and the core. A k
above the number of distinct points is a SolveError.
Settings are checked by errors.require_int and require_real, which store
them as Python numbers, and arrays by distance.weight_fault and matrix_fault.

A brute-force enumerator doubles as the test oracle for desk-size instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite
from typing import Optional, Sequence, Union
from zlib import crc32

import numpy as np

from .distance import DistanceMatrix, matrix_fault, weight_fault
from .errors import ConvergenceError, SolveError, require_fields, require_int, require_real
from .rng import SplitMix64

DEFAULT_MODE = "global_swap"
DEFAULT_EPSILON = 1e-6
BRUTE_FORCE_LIMIT = 10**6
# a block scores up to BLOCK candidates at once, about BLOCK_CELLS cells'
# worth (block_height; swept in CHANGES.md)
BLOCK = 64
BLOCK_CELLS = 48_000

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
    mode: str = DEFAULT_MODE  # the swap rule; global_swap is the only one
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    max_passes: Optional[int] = None  # a caller's cap on the passes; None runs to convergence

    def __post_init__(self):
        require_fields(self, require_int, SolveError, "k", "seed")
        if self.max_passes is not None:
            require_fields(self, require_int, SolveError, "max_passes")
            if self.max_passes < 1:
                raise SolveError(f"max_passes must be >= 1, got {self.max_passes}")
        if self.mode == "cluster_screened":
            raise SolveError(f"mode 'cluster_screened' was removed; the one swap rule is {DEFAULT_MODE!r}")
        if self.mode != DEFAULT_MODE:
            raise SolveError(f"unknown mode {self.mode!r}")
        require_fields(self, require_real, SolveError, "epsilon")
        if not (self.epsilon > 0 and isfinite(self.epsilon)):
            # an infinite epsilon would refuse every swap and return the start
            raise SolveError(f"epsilon must be positive and finite, got {self.epsilon}")


def as_square_array(matrix: MatrixLike) -> np.ndarray:
    d = matrix.values if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise SolveError(f"need a square points x points matrix, got shape {d.shape}")
    return d


def _check_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise SolveError(f"weights length {w.shape} does not match {n} points")
    if (i := weight_fault(w)) is not None:
        raise SolveError(f"weights must all be positive and finite; weight {i} is {float(w[i])}")
    return w


def initialize(n: int, k: int) -> list[int]:
    """Initial medoids are the first k points."""
    if not 1 <= k <= n:
        raise SolveError(f"k={k} out of range for {n} points")
    return list(range(k))


def assign(matrix: MatrixLike, medoids: Sequence[int], weights=None) -> tuple[np.ndarray, float]:
    """Nearest-medoid assignment (ties to the lowest medoid index) and the
    weighted objective. Medoids always serve themselves. No medoids, a
    medoid index that is not an integer (bool is not one; numpy integers
    are), or one outside [0, n), raises SolveError."""
    d = as_square_array(matrix)
    n = d.shape[0]
    w = _check_weights(weights, n)
    med = sorted(require_int("medoid index", i, SolveError) for i in medoids)
    if not med:
        raise SolveError("assign needs at least one medoid")
    for i in (med[0], med[-1]):
        if not 0 <= i < n:
            raise SolveError(f"medoid index {i} out of range for {n} points")
    # argmin(axis=0) reads this view of d[:, med] in place; d.T[med] it would copy
    obj, first, _ = _nearest(d[:, med].T, w, med)
    return _assignment(first, med), obj


def _nearest(sub: np.ndarray, w: np.ndarray, med):
    """The one nearest-medoid kernel, for assign and the swap engine. Row j
    of sub holds every point's distance to med[j], med sorted (a list or an
    index array). Returns the objective float(w.dot(served)) over each
    point's d[i, assignment[i]] (a medoid serves itself even if another is
    colocated), and each point's nearest row of sub (the first minimum: the
    lowest medoid index) and its distance there."""
    first = sub.argmin(axis=0)
    nearest = sub[first, np.arange(sub.shape[1])]
    served = nearest.copy()
    served[med] = sub[np.arange(len(med)), med]
    return float(w.dot(served)), first, nearest


def _assignment(first: np.ndarray, med) -> np.ndarray:
    """The medoid serving each point, from _nearest's rows: the nearest
    medoid, ties to the lowest index, and a medoid itself."""
    assignment = np.asarray(med, dtype=np.int64)[first]
    assignment[med] = med
    return assignment


def _duplicate_classes(d: np.ndarray, symmetric: bool):
    """Group points whose whole distance profile (row and column) is
    identical bit for bit. Representatives keep first-occurrence order.

    Under the input contract (zero diagonal) two points i, j of one class
    have d[i, j] == d[i, i] == 0, so only a point with an off-diagonal zero
    in its row is looked at; every other point is its own class. See the
    module doc for the keys."""
    n = d.shape[0]
    suspects = np.flatnonzero(np.count_nonzero(d == 0, axis=1) > 1).tolist()

    def profile(i: int) -> tuple:
        """Point i's row, and unless symmetric (_symmetric(d): then equal
        rows have equal columns) its column, as bytes; made to compare,
        and kept only as the last representative compared with."""
        return (d[i].tobytes(),) if symmetric else (d[i].tobytes(), d[:, i].tobytes())

    rep_of = list(range(n))  # itself, until it matches an earlier point
    seen: dict[int, list[int]] = {}  # a key's representatives
    last = (None, None)  # the representative last compared with, and its profile
    for i in suspects:
        # the key is the row's alone: a column is read only to confirm
        bucket = seen.setdefault(crc32(np.ascontiguousarray(d[i])), [])
        mine = profile(i) if bucket else None
        for r in bucket:
            if last[0] != r:  # copies in a run read their representative once
                last = (r, profile(r))
            if last[1] == mine:  # bytes, not floats: -0.0 == 0.0
                rep_of[i] = r
                break
        else:
            bucket.append(i)
    reps = [i for i, r in enumerate(rep_of) if r == i]
    class_of = np.empty(n, dtype=np.int64)
    class_of[reps] = np.arange(len(reps))
    return reps, class_of[rep_of]


def _symmetric(d: np.ndarray) -> bool:
    """Whether the float64 matrix d, of at least one row, equals its
    transpose bit for bit. A directed matrix almost always shows it in row
    0, which is compared first, without a points x points mask."""
    bits = d.view(np.uint64)
    return np.array_equal(bits[0], bits[:, 0]) and np.array_equal(bits, bits.T)


def _column_rows(d: np.ndarray, symmetric: bool) -> np.ndarray:
    """An array whose row p is column p of d, contiguous and aligned: d
    itself when symmetric (_symmetric(d), as for a great-circle matrix) and
    d can be gathered from, else one transposed copy."""
    if symmetric and d.dtype == np.float64 and d.flags.c_contiguous and d.flags.aligned:
        return d
    return np.ascontiguousarray(d.T, dtype=np.float64)


def _medoid_state(rows: np.ndarray, w: np.ndarray, med: np.ndarray):
    """What the scan reads for the sorted medoids med (an index array):
    assign()'s objective, and the k x n nearest-other rows: row j holds
    every point's distance to its nearest medoid other than med[j] (the
    second-nearest distance where med[j] is the nearest, else the nearest;
    inf when k == 1). Also _nearest's rows, from which _assignment gives
    the assignment. All of it comes from one gather of the medoids'
    columns."""
    sub = rows.take(med, axis=0)  # sub[j, i] is d[i, med[j]], bit for bit
    obj, first, nearest = _nearest(sub, w, med)
    if len(med) == 1:
        return obj, np.full(sub.shape, np.inf), first
    other = np.empty(sub.shape)
    other[:] = nearest
    # each point's nearest cell, in the flat order of sub and other
    cells = first * sub.shape[1] + np.arange(sub.shape[1])
    sub.reshape(-1)[cells] = np.inf  # sub is a copy (take)
    other.reshape(-1)[cells] = sub.min(axis=0)
    return obj, other, first


def block_height(n: int) -> int:
    """Candidates a block scores at once over n points: about BLOCK_CELLS
    cells, at least one and at most BLOCK."""
    return min(BLOCK, max(1, BLOCK_CELLS // n))


def _solve_core(d: np.ndarray, w: np.ndarray, k: int, params: SolveParams, trace=None, symmetric=None) -> Clustering:
    """The swap engine on distinct points; symmetric is _symmetric(d), or None."""
    n = d.shape[0]
    medoids = initialize(n, k)
    rows = _column_rows(d, _symmetric(d) if symmetric is None else symmetric)
    med = np.array(medoids, dtype=np.intp)  # medoids, as an index array
    obj, other, first = _medoid_state(rows, w, med)
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[medoids] = True
    slot = np.zeros(n, dtype=np.intp)  # slot[m]: the row of medoid m in other
    slot[med] = np.arange(k)
    rng = SplitMix64(params.seed)
    passes = 0
    # a block's trial vectors and the nearest-other rows they are cut by
    height = block_height(n)
    trial_buf = np.empty((height, n))
    other_buf = np.empty((height, n))
    w_col = w[:, None]

    while True:
        if params.max_passes is not None and passes >= params.max_passes:
            best = Clustering(tuple(medoids), tuple(_assignment(first, medoids).tolist()), obj, passes)
            raise ConvergenceError(f"no convergence after {passes} passes", best=best)
        passes += 1
        accepted_any = False

        # candidate c is (medoids[c // (n - k)], the (c % (n - k))-th
        # non-medoid), taken in a seeded Fisher-Yates order
        non_medoids = np.flatnonzero(~is_medoid)
        order = rng.permutation(k * (n - k))
        outs, inns = np.divmod(order, max(n - k, 1))  # no candidates when k == n
        outs = med[outs]
        inns = non_medoids[inns]

        # from the pass's start, then right after each accept, score the
        # live candidates (out a medoid, inn not; the others are stale, the
        # set having changed since the pass was enumerated) in blocks
        start = 0
        while True:
            live = start + (is_medoid[outs[start:]] > is_medoid[inns[start:]]).nonzero()[0]
            live_inns, live_slots = inns[live], slot[outs[live]]
            # a swap is kept if it lowers the objective by more than epsilon
            bar = obj - params.epsilon
            lo, hit = 0, None
            while hit is None and lo < live.size:
                hi = lo + height
                block_inns, block_slots = live_inns[lo:hi], live_slots[lo:hi]
                m = len(block_inns)
                trial, nearest = trial_buf[:m], other_buf[:m]
                rows.take(block_inns, axis=0, out=trial, mode="clip")
                other.take(block_slots, axis=0, out=nearest, mode="clip")
                # each point's distance after the swap, elementwise what
                # assign() gathers; each (1, n) @ (n, 1) product of the stack
                # is summed by w.dot's routine, so it has np.dot's bits
                np.minimum(trial, nearest, out=trial)
                hits = np.less(np.matmul(trial[:, None, :], w_col), bar).nonzero()[0]
                if hits.size:
                    hit = lo + int(hits[0])
                lo = hi
            if hit is None:
                break
            j = int(live[hit])
            out, inn = int(outs[j]), int(inns[j])
            medoids = sorted(set(medoids) - {out} | {inn})
            med = np.array(medoids, dtype=np.intp)
            is_medoid[out], is_medoid[inn] = False, True
            slot[med] = np.arange(k)
            obj, other, first = _medoid_state(rows, w, med)
            accepted_any = True
            if trace is not None:
                trace(passes, out, inn, obj)
            start = j + 1

        if not accepted_any:
            break

    return Clustering(
        medoids=tuple(medoids),
        assignment=tuple(_assignment(first, medoids).tolist()),
        objective=obj,
        passes=passes,
    )


def solve(matrix: MatrixLike, params: SolveParams, trace=None) -> Clustering:
    """Swap-improvement K-Medoids from the first-K start; see module doc.

    Points with identical distance profiles (exact duplicates, as produced
    by weighting-by-duplication) are collapsed to one point carrying their
    combined weight before solving, then expanded back. This makes the
    duplication trick exactly equivalent to direct weights: both instances
    reduce to the same core solve, and a k above the number of distinct
    points is a SolveError naming it.

    trace, if given, is called as trace(pass_number, out_index, in_index,
    new_objective) after every accepted swap.
    """
    d = as_square_array(matrix)
    if fault := matrix_fault(d, diagonal=True):  # once per solve, not per assign
        raise SolveError(fault)
    n = d.shape[0]
    w = _check_weights(params.weights, n)
    if not 1 <= params.k <= n:
        raise SolveError(f"k={params.k} out of range for {n} points")

    # once per solve: a principal submatrix of a matrix equal to its
    # transpose bit for bit is too
    symmetric = _symmetric(d)
    reps, class_of = _duplicate_classes(d, symmetric)
    if len(reps) == n:
        return _solve_core(d, w, params.k, params, trace, symmetric=symmetric)
    if params.k > len(reps):
        raise SolveError(f"k={params.k} out of range for {len(reps)} distinct of {n} points")

    dc = d[np.ix_(reps, reps)]
    wc = np.zeros(len(reps))
    np.add.at(wc, class_of, w)

    def expand(core: Clustering) -> Clustering:
        medoids = [reps[m] for m in core.medoids]
        assignment, obj = assign(d, medoids, w)
        return Clustering(
            medoids=tuple(medoids),
            assignment=tuple(int(x) for x in assignment),
            objective=obj,
            passes=core.passes,
        )

    # trace in original indices even though the walk is over representatives
    wrapped = None if trace is None else (lambda p, o, i, obj: trace(p, reps[o], reps[i], obj))
    try:
        core = _solve_core(dc, wc, params.k, params, wrapped, symmetric=symmetric)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), best=expand(exc.best)) from None
    return expand(core)


def brute_force_solve(matrix: MatrixLike, k: int, weights=None) -> Clustering:
    """Exact optimum by enumerating all k-subsets, lexicographic tie-break."""
    d = as_square_array(matrix)
    if fault := matrix_fault(d, diagonal=True):
        raise SolveError(fault)
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
