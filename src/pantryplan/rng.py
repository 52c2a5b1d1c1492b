"""Seeded pseudo-randomness shared by sampling and the solver.

splitmix64 is fixed as the generator so that sampled subsets and candidate
schedules are identical for a given seed no matter where the code runs.

splitmix64 is counter-based: draw k after state s mixes s + k*gamma, so a
block of draws is computed at once as uint64 numpy arithmetic, which wraps
mod 2**64 like the scalar masks. Every operand is a uint64 array or an
np.uint64 constant: scalar uint64 arithmetic warns on overflow, and under
numpy 1.x a uint64 combined with a Python int promotes to float64.

permutation replays Fisher-Yates over range(count) from one block of draws,
without a swap loop. Step i (i = count - 1 .. 1) swaps positions i and
t_i <= i, and position i is never touched after step i, so it ends holding
what position t_i held just before step i. For a position p, let S_p be
the steps i > p with t_i = p; one sort of the keys t_i * 2**b + i (b bits
hold count - 1) lists each S_p in ascending order. Position p is last
written before step p by min S_p, which brings in what position min S_p
held just before its own step: following ptr[p] = min S_p (p itself when
S_p is empty) to its end gives that, by pointer jumping. A step of S_p
takes what the next greater step of S_p left at p, the greatest takes p.
It computes in intp and int64 arrays only, after the one uint64
remainder.
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

    def permutation(self, count: int) -> np.ndarray:
        """The order a Fisher-Yates shuffle driven by this stream leaves
        range(count) in, as an intp array.

        Equal, permutation and stream state alike, to swapping items[i] with
        items[next_u64() % (i + 1)] for i from count - 1 down to 1 in
        list(range(count)); the swap targets are taken in one block of draws,
        and the swaps are not run one by one (module doc).
        """
        m = operator.index(count) - 1
        if m < 1:
            return np.arange(count, dtype=np.intp)
        bounds = np.arange(m + 1, 1, -1, dtype=np.uint64)  # i + 1 for i = m .. 1
        targets = self.draws(m) % bounds
        # step i (i = m .. 1) swaps positions i and t_i <= i; S_p is the set
        # of steps i > p with t_i = p, listed by one sort of the keys
        # t_i * 2**shift + i, in ascending p and then i (int64 keys: count
        # below 2**31)
        steps = np.arange(m, 0, -1, dtype=np.int64)
        t = targets.astype(np.int64)
        moved = t < steps
        shift = m.bit_length()
        keys = np.sort((t[moved] << shift) | steps[moved])
        p, s = keys >> shift, keys & ((1 << shift) - 1)
        head = np.empty(len(keys), dtype=bool)  # the least step of its S_p
        head[:1] = True
        np.not_equal(p[1:], p[:-1], out=head[1:])
        # position p holds, just before step p (after all steps for p = 0),
        # what position min S_p held just before step min S_p, or p itself
        # when S_p is empty: the end of the chain ptr, found by pointer
        # jumping
        ptr = np.arange(count, dtype=np.intp)
        ptr[p[head]] = s[head]
        while True:
            jumped = ptr[ptr]
            if (jumped == ptr).all():
                break
            ptr = jumped
        # step i takes what position t_i holds just before it: the chain end
        # of the next greater step of S_p when i is in S_p, the item p when
        # i is the greatest; a step with t_i = i takes its own chain end
        taken = np.empty(len(keys), dtype=np.intp)
        taken[:-1] = ptr[s[1:]]
        last = np.empty_like(head)  # the greatest step of its S_p
        last[:-1] = head[1:]
        last[-1:] = True
        taken[last] = p[last]
        ptr[s] = taken
        return ptr


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """First k slots of a seeded partial Fisher-Yates over range(n).

    Returns indices in selection order. k may equal n (full shuffle order).
    Slot i swaps with slot i + draw % (n - i), the k targets taken in one
    block of draws, as permutation takes its own.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot take {k} of {n}")
    idx = list(range(n))
    bounds = np.arange(n - k + 1, n + 1, dtype=np.uint64)[::-1]  # n - i for i = 0 .. k - 1
    targets = (SplitMix64(seed).draws(k) % bounds + np.arange(k, dtype=np.uint64)).tolist()
    for i, j in enumerate(targets):
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]
