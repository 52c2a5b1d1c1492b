"""The assumption the swap engine's block scoring rests on: each (1, n) @
(n, 1) product of a stacked np.matmul is summed by the same dot routine
w.dot calls, so a block of scores has, bit for bit, the sums one w.dot per
candidate would give. (A (b, n) @ (n,) product is a gemv, which sums in
another order.)"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pantryplan import kmedoids


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 1500))
    height = draw(st.integers(1, kmedoids.BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = sorted(draw(st.integers(-3, 7)) for _ in range(2))
    # magnitudes from 10**low to 10**high, with a share of exact zeros
    rows = rng.uniform(1.0, 10.0, size=(height, n)) * 10.0 ** rng.integers(low, high + 1, size=(height, n))
    rows[rng.random((height, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = 0.0
    w = rng.uniform(0.1, 10.0, size=n) * 10.0 ** rng.integers(low, high + 1, size=n)
    return rows, w


@settings(max_examples=200, deadline=None)
@given(blocks())
def test_stacked_matmul_sums_each_row_as_w_dot_does(block):
    rows, w = block
    # a slice of a taller buffer, as the engine scores a block
    buffer = np.empty((kmedoids.BLOCK, rows.shape[1]))
    trial = buffer[: len(rows)]
    trial[:] = rows
    stacked = np.matmul(trial[:, None, :], w[:, None]).ravel()
    one_by_one = np.array([w.dot(row) for row in rows])
    assert stacked.tobytes() == one_by_one.tobytes()
