import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pantryplan import kmedoids
from pantryplan.errors import ConvergenceError, SolveError
from pantryplan.kmedoids import (
    Clustering,
    SolveParams,
    assign,
    brute_force_solve,
    initialize,
    solve,
)

from conftest import line_matrix, peak_bytes, planar_matrix
from reference_solver import bytes_key_duplicate_classes, full_scan_duplicate_classes

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


@pytest.mark.parametrize("medoids, index", [([-1], -1), ([4], 4), ([0, 4], 4), ([-2, 1], -2)])
def test_assign_refuses_a_medoid_out_of_range(medoids, index):
    # numpy would read -1 as the last row, and 4 raises a bare IndexError
    with pytest.raises(SolveError, match=rf"^medoid index {index} out of range for 4 points$"):
        assign(LINE, medoids)


@pytest.mark.parametrize("index", [1.5, True, "a", np.float64(1.0), np.bool_(True), None])
def test_assign_refuses_a_medoid_index_that_is_not_an_integer(index):
    with pytest.raises(SolveError, match=r"^medoid index must be an integer, got "):
        assign(LINE, [0, index])


def test_assign_accepts_numpy_integer_medoids():
    want = assign(LINE, [0, 2])
    for medoids in ([np.int64(0), np.int32(2)], np.array([2, 0]), (m for m in (0, 2))):
        got = assign(LINE, medoids)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


def test_assign_refuses_no_medoids():
    with pytest.raises(SolveError, match="at least one medoid"):
        assign(LINE, [])


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


def test_solve_refuses_k_above_the_distinct_points():
    # points 0, 1 and 3 are copies of one point: 2 distinct points among 4,
    # which took a copy as a third medoid
    d = line_matrix([0.0, 0.0, 5.0, 0.0])
    assert solve(d, SolveParams(k=2)).medoids == (0, 2)
    with pytest.raises(SolveError, match=r"^k=3 out of range for 2 distinct of 4 points$"):
        solve(d, SolveParams(k=3))
    # one household's three copies
    with pytest.raises(SolveError, match=r"^k=2 out of range for 1 distinct of 3 points$"):
        solve(np.zeros((3, 3)), SolveParams(k=2))


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


BAD_WEIGHTS = [(float("nan"), 1), (float("inf"), 2), (float("-inf"), 0), (0.0, 3), (-1.0, 1)]


def with_bad_weight(value, index):
    w = [1.0, 2.0, 1.0, 3.0]
    w[index] = value
    return w


@pytest.mark.parametrize("value, index", BAD_WEIGHTS)
def test_solve_refuses_a_non_finite_or_non_positive_weight(value, index):
    with pytest.raises(SolveError, match=f"weight {index} is {value}"):
        solve(LINE, SolveParams(k=2, weights=with_bad_weight(value, index)))


@pytest.mark.parametrize("value, index", BAD_WEIGHTS)
def test_assign_refuses_a_non_finite_or_non_positive_weight(value, index):
    with pytest.raises(SolveError, match=f"weight {index} is {value}"):
        assign(LINE, [0, 2], with_bad_weight(value, index))


@pytest.mark.parametrize("value, index", BAD_WEIGHTS)
def test_brute_force_refuses_a_non_finite_or_non_positive_weight(value, index):
    with pytest.raises(SolveError, match=f"weight {index} is {value}"):
        brute_force_solve(LINE, 2, with_bad_weight(value, index))


def test_bad_weight_message_names_the_first_bad_index():
    with pytest.raises(SolveError, match="weight 1 is nan"):
        assign(LINE, [0], [1.0, float("nan"), float("inf"), 0.0])


def column_rows(d):
    return kmedoids._column_rows(d, kmedoids._symmetric(d))


def duplicate_classes(d):
    return kmedoids._duplicate_classes(d, kmedoids._symmetric(d))


def test_column_rows_are_the_matrix_itself_when_it_equals_its_transpose():
    d = planar_matrix(np.random.default_rng(2), 12)
    assert column_rows(d) is d
    directed = d * np.random.default_rng(3).uniform(0.5, 2.0, size=d.shape)
    rows = column_rows(directed)
    assert rows.flags.c_contiguous and (rows == directed.T).all()
    # 0.0 == -0.0, but not bit for bit
    signed = d.copy()
    signed[0, 1] = signed[1, 0] = 0.0
    signed[1, 0] = -0.0
    assert column_rows(signed) is not signed
    # a transposed view equals its transpose but is not C-contiguous
    assert column_rows(d.T) is not d.T


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


@pytest.mark.parametrize("max_passes", ["3", True, 3.0])
def test_solve_params_reject_non_integer_max_passes(max_passes):
    with pytest.raises(SolveError, match="max_passes must be an integer"):
        SolveParams(k=2, max_passes=max_passes)


@pytest.mark.parametrize("max_passes", [0, -3, np.int64(0)])
def test_solve_params_reject_max_passes_below_1(max_passes):
    with pytest.raises(SolveError, match=f"^max_passes must be >= 1, got {max_passes}$"):
        SolveParams(k=2, max_passes=max_passes)


def test_one_pass_is_a_valid_max_passes():
    # LINE converges after one improving pass and a pass that finds nothing
    with pytest.raises(ConvergenceError, match="^no convergence after 1 passes$"):
        solve(LINE, SolveParams(k=2, max_passes=1))


@pytest.mark.parametrize("epsilon", ["x", True, None, [1e-6]])
def test_solve_params_reject_non_real_epsilon(epsilon):
    with pytest.raises(SolveError, match="epsilon must be a real number"):
        SolveParams(k=2, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [math.inf, np.float64("inf")])
def test_solve_params_reject_infinite_epsilon(epsilon):
    # an infinite epsilon refuses every swap, so solve would return the start
    with pytest.raises(SolveError, match="epsilon must be positive and finite"):
        SolveParams(k=2, epsilon=epsilon)


def test_solve_params_accept_numpy_scalars():
    params = SolveParams(k=2, epsilon=np.float32(1e-6), max_passes=np.int64(5))
    assert solve(LINE, params).medoids == solve(LINE, SolveParams(k=2, max_passes=5)).medoids


# --- duplicate classes ----------------------------------------------------------

@st.composite
def contract_matrices(draw):
    """Square matrices under solve's input contract: distinct points, exact
    duplicates, directed distances, and off-diagonal zeros between points
    whose rows differ."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = planar_matrix(rng, n)
    if draw(st.booleans()):  # directed: d[i, j] != d[j, i]
        d = d * rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
    if draw(st.booleans()):  # coarse rounding makes near points 0 apart
        d = np.round(d / 400.0)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        # a zero in one direction only: i, j stay distinct points
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d[i, j] = 0.0
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        # point j becomes a copy of point i: same row, same column, 0 apart
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d[j, :] = d[i, :]
        d[:, j] = d[:, i]
        d[i, j] = d[j, i] = 0.0
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        # point j takes point i's row but keeps its own column: equal rows,
        # different columns, so a directed matrix keeps them apart
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        d[j, :] = d[i, :]
        d[i, j] = d[j, i] = d[j, j] = 0.0
    if draw(st.booleans()):  # -0.0 is a zero to the scan and other bytes to the hash
        signed = (d == 0) & (rng.uniform(size=(n, n)) < 0.5)
        if draw(st.booleans()):  # on both sides of the diagonal: still symmetric
            signed |= signed.T
        d[signed] = -0.0
    return d


@settings(max_examples=300, deadline=None)
@given(contract_matrices())
def test_duplicate_classes_match_a_full_scan(d):
    reps, class_of = duplicate_classes(d)
    want_reps, want_class_of = full_scan_duplicate_classes(d)
    assert reps == want_reps
    assert class_of.tolist() == want_class_of.tolist()


@settings(max_examples=300, deadline=None)
@given(contract_matrices())
def test_duplicate_classes_match_the_bytes_keyed_scan(d):
    reps, class_of = duplicate_classes(d)
    want_reps, want_class_of = bytes_key_duplicate_classes(d)
    assert reps == want_reps
    assert class_of.tolist() == want_class_of.tolist()


@pytest.mark.parametrize("directed", [False, True])
def test_duplicate_scan_holds_no_row_copies(directed):
    # 200 points, each twice: a scan keeping each class's row and column
    # bytes would hold the whole block's worth
    rng = np.random.default_rng(5)
    base = planar_matrix(rng, 200)
    if directed:
        base = base * rng.uniform(0.5, 2.0, size=base.shape)
    origin = np.repeat(np.arange(200), 2)
    d = base[np.ix_(origin, origin)]
    assert kmedoids._symmetric(d) is not directed
    assert len(duplicate_classes(d)[0]) == 200
    assert peak_bytes(lambda: bytes_key_duplicate_classes(d))[0] > d.nbytes
    # an n x n bool mask (an eighth of the block) at a time, and one column
    assert peak_bytes(lambda: duplicate_classes(d))[0] < d.nbytes / 4



def test_solve_trajectory_on_duplicated_rows_is_that_of_a_full_scan(monkeypatch):
    # rows repeated adjacently, as duplication weighting writes them
    rng = np.random.default_rng(17)
    base = planar_matrix(rng, 40)
    origin = [i for i in range(40) for _ in range(int(rng.integers(1, 4)))]
    d = base[np.ix_(origin, origin)]
    params = SolveParams(k=6, seed=11)

    def walk():
        events = []
        return events, solve(d, params, lambda *e: events.append(e))

    assert len(duplicate_classes(d)[0]) == 40 < len(origin)
    fast = walk()
    monkeypatch.setattr(kmedoids, "_duplicate_classes", lambda d, symmetric: full_scan_duplicate_classes(d))
    assert walk() == fast
    assert len(fast[0]) > 6  # many accepted swaps
