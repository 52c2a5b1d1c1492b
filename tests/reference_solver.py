"""Reference swap loop: a full `assign()` for every swap candidate.

This is the solver core as it was before candidates were scored from
nearest-medoid caches. It costs O(n*k) per candidate, which is too slow to
ship, but its trajectory defines what the fast engine must reproduce
exactly: the same accepted swaps in the same order, the same objectives to
the last bit, and the same final clustering.
"""

from __future__ import annotations

import numpy as np

from pantryplan.errors import ConvergenceError
from pantryplan.kmedoids import Clustering, SolveParams, assign, initialize
from pantryplan.rng import SplitMix64


def reference_solve_core(d: np.ndarray, w: np.ndarray, k: int, params: SolveParams, trace=None) -> Clustering:
    n = d.shape[0]
    medoids = initialize(n, k)
    assignment, obj = assign(d, medoids, w)
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
            trial = sorted(current - {out} | {inn})
            trial_assignment, trial_obj = assign(d, trial, w)
            ok = trial_obj <= obj if screened else trial_obj < obj - params.epsilon
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
