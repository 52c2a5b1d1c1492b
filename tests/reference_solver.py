"""Reference swap loop: a full `assign()` for every swap candidate.

This is the solver core as it was before candidates were scored from
nearest-medoid caches. It costs O(n*k) per candidate, which is too slow to
ship, but its trajectory defines what the fast engine must reproduce
exactly: the same accepted swaps in the same order, the same objectives to
the last bit, and the same final clustering.

It also shuffles each pass's candidates with its own scalar Fisher-Yates,
one next_u64 per swap, so that the trajectory tests compare candidate order
against a shuffle that does not share the package's block draws.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np

from pantryplan.errors import ConvergenceError
from pantryplan.kmedoids import Clustering, SolveParams, assign, initialize
from pantryplan.rng import SplitMix64


def reference_shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates: swap items[i] with items[draw % (i + 1)], i from the end."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


def _no_scan(pass_number, position, status):
    pass


def reference_solve_core(
    d: np.ndarray, w: np.ndarray, params: SolveParams, trace=None, symmetric=None, scan=_no_scan
) -> Clustering:
    """scan is called as scan(pass_number, position, status) for every
    candidate in scan order, status being "stale", "rejected" or "accepted":
    a candidate is accepted iff its objective is below the current one less
    epsilon, the one swap rule.
    symmetric, solve's answer to whether d equals its transpose, is taken
    so that this can stand in for kmedoids._solve_core, and not read: the
    reference reads d's columns as they are."""
    n, k = d.shape[0], params.k
    medoids = initialize(n, k)
    assignment, obj = assign(d, medoids, w)
    rng = SplitMix64(params.seed)
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
        candidates = [(m, p) for m in sorted(medoids) for p in range(n) if not in_set[p]]
        reference_shuffle(rng, candidates)

        current = set(medoids)
        for position, (out, inn) in enumerate(candidates):
            if out not in current or inn in current:
                scan(passes, position, "stale")
                continue  # stale: the set changed since this pass was enumerated
            trial = sorted(current - {out} | {inn})
            trial_assignment, trial_obj = assign(d, trial, w)
            ok = trial_obj < obj - params.epsilon
            scan(passes, position, "accepted" if ok else "rejected")
            if ok:
                current = set(trial)
                medoids = trial
                assignment, obj = trial_assignment, trial_obj
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


def full_scan_duplicate_classes(d: np.ndarray):
    """Duplicate classes by hashing every point's row and column: the scan
    solve() ran before it hashed only points with an off-diagonal zero."""
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


def bytes_key_duplicate_classes(d: np.ndarray):
    """Duplicate classes keyed by a copy of each suspect's row bytes plus a
    strided copy of its column's: the scan solve() ran before its keys were
    CRC32s confirmed by comparing bytes. Only points with an off-diagonal
    zero are keyed."""
    n = d.shape[0]
    suspects = (np.count_nonzero(d == 0, axis=1) > 1).tolist()
    seen: dict[bytes, int] = {}
    reps: list[int] = []
    class_of = np.empty(n, dtype=np.int64)
    for i in range(n):
        c = len(reps)
        if suspects[i]:
            c = seen.setdefault(d[i, :].tobytes() + d[:, i].tobytes(), c)
        if c == len(reps):
            reps.append(i)
        class_of[i] = c
    return reps, class_of


def rereading_duplicate_classes(d: np.ndarray, symmetric: bool):
    """Duplicate classes keyed by the CRC32s of each suspect's row and
    (unless symmetric) column bytes, a key shared with an earlier
    representative confirmed by comparing bytes: the scan solve() ran before
    it read the suspects' profiles in batches, when each confirmation read
    the representative's profile again."""
    n = d.shape[0]
    suspects = np.flatnonzero(np.count_nonzero(d == 0, axis=1) > 1).tolist()

    def profile(i: int) -> tuple:
        return (d[i].tobytes(),) if symmetric else (d[i].tobytes(), d[:, i].tobytes())

    rep_of = list(range(n))
    seen: dict[tuple, list[int]] = {}
    for i in suspects:
        mine = profile(i)
        bucket = seen.setdefault(tuple(map(crc32, mine)), [])
        for r in bucket:
            if profile(r) == mine:
                rep_of[i] = r
                break
        else:
            bucket.append(i)
    reps = [i for i, r in enumerate(rep_of) if r == i]
    class_of = np.empty(n, dtype=np.int64)
    class_of[reps] = np.arange(len(reps))
    return reps, class_of[rep_of]
