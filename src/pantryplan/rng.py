"""Seeded pseudo-randomness shared by sampling and the solver.

splitmix64 is fixed as the generator so that sampled subsets and candidate
schedules are identical for a given seed no matter where the code runs.

splitmix64 is counter-based: draw k after state s mixes s + k*gamma, so a
block of draws is computed at once as uint64 numpy arithmetic, which wraps
mod 2**64 like the scalar masks. Every operand is a uint64 array or an
np.uint64 constant: scalar uint64 arithmetic warns on overflow, and under
numpy 1.x a uint64 combined with a Python int promotes to float64.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


class SplitMix64:
    """splitmix64 stream; state advances by the golden-gamma each draw."""

    def __init__(self, seed: int):
        # index() takes numpy integers as Python ints: np.int64 & 2**64 - 1
        # overflows
        self._state = operator.index(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def draws(self, count: int) -> np.ndarray:
        """The next count outputs of next_u64, as a uint64 array; the stream
        continues after them."""
        z = np.arange(1, count + 1, dtype=np.uint64) * _U_GAMMA + np.uint64(self._state)
        self._state = (self._state + operator.index(count) * _GAMMA) & _MASK64
        z = (z ^ (z >> _U30)) * _U_MIX1
        z = (z ^ (z >> _U27)) * _U_MIX2
        return z ^ (z >> _U31)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream.

        Equal, permutation and stream state alike, to swapping items[i] with
        items[next_u64() % (i + 1)] for i from len - 1 down to 1; the swap
        targets are taken in one block of draws.
        """
        m = len(items) - 1
        if m < 1:
            return
        bounds = np.arange(2, m + 2, dtype=np.uint64)[::-1]  # i + 1 for i = m .. 1
        targets = (self.draws(m) % bounds).tolist()
        for i, j in zip(range(m, 0, -1), targets):
            items[i], items[j] = items[j], items[i]


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """First k slots of a seeded partial Fisher-Yates over range(n).

    Returns indices in selection order. k may equal n (full shuffle order).
    Slot i swaps with slot i + draw % (n - i), the k targets taken in one
    block of draws, as shuffle takes its own.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot take {k} of {n}")
    idx = list(range(n))
    bounds = np.arange(n - k + 1, n + 1, dtype=np.uint64)[::-1]  # n - i for i = 0 .. k - 1
    targets = (SplitMix64(seed).draws(k) % bounds + np.arange(k, dtype=np.uint64)).tolist()
    for i, j in enumerate(targets):
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]
