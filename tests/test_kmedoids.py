import numpy as np
import pytest

from pantryplan.errors import ConvergenceError, SolveError
from pantryplan.kmedoids import (
    Clustering,
    SolveParams,
    assign,
    brute_force_solve,
    initialize,
    objective,
    solve,
)

from conftest import line_matrix, planar_matrix

LINE = line_matrix([0.0, 1.0, 5.0, 6.0])


def check_clustering_invariants(d, c: Clustering, weights=None, epsilon=1e-6):
    """The contracts every returned clustering must satisfy."""
    n = d.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    assert list(c.medoids) == sorted(set(c.medoids))
    for m in c.medoids:
        assert c.assignment[m] == m
    for i, a in enumerate(c.assignment):
        assert a in c.medoids
        dists = [d[i, m] for m in c.medoids]
        assert d[i, a] == min(dists)
        if i not in c.medoids:
            # ties go to the lowest medoid index
            assert a == min(m for m in c.medoids if d[i, m] == min(dists))
    recomputed = float(sum(w[i] * d[i, a] for i, a in enumerate(c.assignment)))
    assert abs(recomputed - c.objective) <= 1e-6


# --- initialize --------------------------------------------------------------

def test_initialize_is_first_k():
    assert initialize(5, 2) == [0, 1]
    assert initialize(4, 4) == [0, 1, 2, 3]
    assert initialize(1, 1) == [0]


@pytest.mark.parametrize("n,k", [(5, 0), (5, 6), (0, 1)])
def test_initialize_out_of_range(n, k):
    with pytest.raises(SolveError):
        initialize(n, k)


# --- assign ------------------------------------------------------------------

def test_assign_hand_instance():
    assignment, obj = assign(LINE, [0, 3])
    assert list(assignment) == [0, 0, 3, 3]
    assert obj == 2.0


def test_assign_all_medoids_is_zero():
    assignment, obj = assign(LINE, [0, 1, 2, 3])
    assert obj == 0.0
    assert list(assignment) == [0, 1, 2, 3]


def test_assign_equidistant_tie_goes_to_lower_medoid():
    d = line_matrix([10.0, 0.0, 5.0, 99.0, 10.0])
    assignment, _ = assign(d, [1, 4])
    assert assignment[2] == 1  # coord 5 sits exactly between coords 0 and 10


def test_assign_colocated_medoids_serve_themselves():
    d = np.zeros((3, 3))
    assignment, obj = assign(d, [0, 2])
    assert assignment[0] == 0 and assignment[2] == 2
    assert obj == 0.0


def test_assign_weighted_objective():
    _, obj = assign(LINE, [0, 3], weights=[1.0, 2.0, 1.0, 1.0])
    assert obj == 3.0  # point 1 now counts twice


# --- objective ---------------------------------------------------------------

def test_objective_zero_matrix():
    assert objective(np.zeros((3, 3)), [0], [0, 0, 0]) == 0.0


def test_objective_hand_value_and_linearity():
    a = [0, 0, 3, 3]
    assert objective(LINE, [0, 3], a) == 2.0
    assert objective(LINE, [0, 3], a, weights=[2.0] * 4) == 4.0


# --- brute force -------------------------------------------------------------

def test_brute_force_line_instance():
    c = brute_force_solve(LINE, 2)
    assert c.objective == 2.0
    # four subsets tie at 2.0: {0,2}, {0,3}, {1,2}, {1,3}; lexicographic winner
    assert c.medoids == (0, 2)


def test_brute_force_k1_collinear():
    c = brute_force_solve(line_matrix([0.0, 1.0, 10.0]), 1)
    assert c.medoids == (1,)
    assert c.objective == 10.0  # medoid costs are 11 / 10 / 19


def test_brute_force_k_equals_n():
    c = brute_force_solve(LINE, 4)
    assert c.objective == 0.0


def test_brute_force_instance_too_large():
    d = np.zeros((60, 60))
    with pytest.raises(SolveError, match="brute-force limit"):
        brute_force_solve(d, 25)


# --- solve -------------------------------------------------------------------

def test_solve_line_reaches_optimum():
    c = solve(LINE, SolveParams(k=2))
    assert c.objective == 2.0  # brute force optimum, all swap paths reach it
    assert c.medoids == (0, 2)  # golden for the default seed schedule
    check_clustering_invariants(LINE, c)


def test_solve_k_equals_n():
    c = solve(LINE, SolveParams(k=4))
    assert c.objective == 0.0
    assert c.medoids == (0, 1, 2, 3)
    assert list(c.assignment) == [0, 1, 2, 3]


def test_solve_two_blobs_one_medoid_each():
    rng = np.random.default_rng(17)
    blob_a = rng.normal((0, 0), 5, (5, 2))
    blob_b = rng.normal((1000, 1000), 5, (5, 2))
    pts = np.vstack([blob_a, blob_b])
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    c = solve(d, SolveParams(k=2))
    oracle = brute_force_solve(d, 2)
    assert c.objective == pytest.approx(oracle.objective, abs=1e-9)
    assert sum(m < 5 for m in c.medoids) == 1  # one site per blob
    check_clustering_invariants(d, c)


def test_solve_determinism():
    rng = np.random.default_rng(23)
    d = planar_matrix(rng, 40)
    a = solve(d, SolveParams(k=4, seed=99))
    b = solve(d, SolveParams(k=4, seed=99))
    assert a == b


def test_solve_rejects_bad_params():
    with pytest.raises(SolveError):
        solve(LINE, SolveParams(k=0))
    with pytest.raises(SolveError):
        solve(LINE, SolveParams(k=5))
    with pytest.raises(SolveError):
        SolveParams(k=2, mode="annealing")
    with pytest.raises(SolveError):
        SolveParams(k=2, epsilon=0.0)
    with pytest.raises(SolveError):
        solve(LINE, SolveParams(k=2, weights=[1.0, 1.0]))
    with pytest.raises(SolveError):
        solve(np.zeros((2, 3)), SolveParams(k=1))


def test_max_passes_exhaustion_reports_best_so_far():
    rng = np.random.default_rng(5)
    d = planar_matrix(rng, 30)
    full = solve(d, SolveParams(k=3, seed=1))
    assert full.passes > 1
    with pytest.raises(ConvergenceError) as err:
        solve(d, SolveParams(k=3, seed=1, max_passes=1))
    best = err.value.best
    assert isinstance(best, Clustering)
    assert best.objective >= full.objective
    # a generous cap that the solver converges under does not raise
    assert solve(d, SolveParams(k=3, seed=1, max_passes=50)) == full


def test_solve_objective_never_above_start():
    rng = np.random.default_rng(31)
    for _ in range(10):
        d = planar_matrix(rng, 15)
        k = int(rng.integers(1, 5))
        _, start = assign(d, initialize(15, k))
        c = solve(d, SolveParams(k=k, seed=3))
        assert c.objective <= start + 1e-9
        check_clustering_invariants(d, c)


def test_single_swap_local_optimality():
    rng = np.random.default_rng(41)
    d = planar_matrix(rng, 25)
    c = solve(d, SolveParams(k=3, seed=7))
    eps = 1e-6
    non_medoids = [p for p in range(25) if p not in c.medoids]
    for out in c.medoids:
        for inn in non_medoids:
            trial = sorted(set(c.medoids) - {out} | {inn})
            _, trial_obj = assign(d, trial)
            assert trial_obj >= c.objective - eps


def test_oracle_bound_on_random_suite():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(1, 4))
        d = planar_matrix(rng, n)
        assert solve(d, SolveParams(k=k, seed=13)).objective >= brute_force_solve(d, k).objective - 1e-9


def test_weighted_equals_duplicated():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(5, 10))
        k = int(rng.integers(1, 4))
        d = planar_matrix(rng, n)
        w = rng.integers(1, 6, size=n)
        weighted = solve(d, SolveParams(k=k, weights=w.astype(float), seed=29))
        origin = [i for i, wi in enumerate(w) for _ in range(wi)]
        expanded = d[np.ix_(origin, origin)]
        dup = solve(expanded, SolveParams(k=k, seed=29))
        assert abs(weighted.objective - dup.objective) <= 1e-6
        assert tuple(sorted({origin[m] for m in dup.medoids})) == weighted.medoids
        check_clustering_invariants(expanded, dup)


def test_equivariance_of_assign_and_objective():
    rng = np.random.default_rng(71)
    d = planar_matrix(rng, 12)
    perm = rng.permutation(12)
    dp = d[np.ix_(perm, perm)]
    medoids = [2, 7, 9]
    a, obj = assign(d, medoids)
    # positions of the same points after relabeling
    inv = np.argsort(perm)
    ap, objp = assign(dp, sorted(inv[medoids]))
    assert objp == pytest.approx(obj, abs=1e-9)
    assert np.array_equal(inv[a[perm]], ap)


def test_equivariance_of_brute_force():
    rng = np.random.default_rng(73)
    for _ in range(5):
        d = planar_matrix(rng, 8)
        perm = rng.permutation(8)
        dp = d[np.ix_(perm, perm)]
        c = brute_force_solve(d, 2)
        cp = brute_force_solve(dp, 2)
        assert cp.objective == pytest.approx(c.objective, abs=1e-9)
        inv = np.argsort(perm)
        # continuous random instances have a unique optimum, so sets must map
        assert tuple(sorted(inv[list(c.medoids)])) == cp.medoids


def test_cluster_screened_mode_converges_and_is_valid():
    rng = np.random.default_rng(83)
    d = planar_matrix(rng, 20)
    c = solve(d, SolveParams(k=3, seed=5, mode="cluster_screened", max_passes=200))
    check_clustering_invariants(d, c)
    _, start = assign(d, initialize(20, 3))
    assert c.objective <= start


def test_cluster_screened_line_instance():
    c = solve(LINE, SolveParams(k=2, mode="cluster_screened", max_passes=100))
    check_clustering_invariants(LINE, c)


def test_trace_reports_monotone_accepted_swaps():
    rng = np.random.default_rng(89)
    d = planar_matrix(rng, 20)
    events = []
    c = solve(d, SolveParams(k=3, seed=2), trace=lambda *e: events.append(e))
    assert events, "expected at least one accepted swap"
    objectives = [e[3] for e in events]
    assert all(a > b for a, b in zip(objectives, objectives[1:])) or len(objectives) == 1
    assert objectives == sorted(objectives, reverse=True)
    assert objectives[-1] == c.objective
    passes = [e[0] for e in events]
    assert passes == sorted(passes)
    for _, out, inn, _ in events:
        assert 0 <= out < 20 and 0 <= inn < 20


# --- input contract ------------------------------------------------------------

@pytest.mark.parametrize(
    "cell,value,what",
    [
        ((0, 3), -60.0, "negative"),  # solved to objective -59.0 before the check
        ((1, 2), np.nan, "non-finite"),  # was silently ignored
        ((3, 0), np.inf, "non-finite"),
        ((2, 2), 3.0, "nonzero diagonal"),  # was accepted
    ],
)
def test_solvers_reject_matrix_outside_contract(cell, value, what):
    d = LINE.copy()
    d[cell] = value
    with pytest.raises(SolveError, match=f"{what} cell at \\({cell[0]}, {cell[1]}\\)"):
        solve(d, SolveParams(k=2))
    with pytest.raises(SolveError, match=what):
        brute_force_solve(d, 2)


@pytest.mark.parametrize("k", ["3", True, 2.0, None])
def test_solve_params_reject_non_integer_k(k):
    with pytest.raises(SolveError, match="k must be an integer"):
        SolveParams(k=k)


def test_solve_params_accept_numpy_integer_k():
    assert solve(LINE, SolveParams(k=np.int64(2))) == solve(LINE, SolveParams(k=2))
