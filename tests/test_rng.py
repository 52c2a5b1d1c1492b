import numpy as np
from hypothesis import given, settings, strategies as st

from pantryplan.rng import SplitMix64, sample_indices

MASK = (1 << 64) - 1


def splitmix64_reference(seed, count):
    """Independent step-by-step trace of the generator, kept separate from
    the implementation on purpose."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_reference_trace():
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(5)] == splitmix64_reference(42, 5)


def test_sample_golden_seed_42():
    # hand trace: draws mod (10, 9, 8) are 3, 1, 2 -> selections 3, 2, 4
    draws = splitmix64_reference(42, 3)
    assert [d % (10 - i) for i, d in enumerate(draws)] == [3, 1, 2]
    assert sample_indices(10, 3, 42) == [3, 2, 4]


@given(st.integers(0, MASK), st.integers(1, 40), st.integers(0, 40))
def test_sample_is_subset_without_repeats(seed, n, k):
    k = min(k, n)
    picked = sample_indices(n, k, seed)
    assert len(picked) == k
    assert len(set(picked)) == k
    assert all(0 <= i < n for i in picked)


def partial_fisher_yates_reference(seed, n, k):
    """Swap slot i with slot i + draw % (n - i) for i from 0, one reference
    draw per swap; the first k slots."""
    idx = list(range(n))
    for i, draw in enumerate(splitmix64_reference(seed, k)):
        j = i + draw % (n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, MASK) | st.sampled_from([0, 1, MASK, MASK - 0x9E3779B97F4A7C15]),
    st.sampled_from([0, 1, 2, 5, 40]) | st.integers(0, 400),
    st.integers(0, 400),
)
def test_sample_matches_scalar_partial_fisher_yates(seed, n, k):
    k = min(k, n)
    assert sample_indices(n, k, seed) == partial_fisher_yates_reference(seed, n, k)


@given(st.integers(0, MASK))
def test_sample_deterministic(seed):
    assert sample_indices(25, 10, seed) == sample_indices(25, 10, seed)


def fisher_yates_reference(seed, items):
    """Swap items[i] with items[draw % (i + 1)] for i from the end, one
    reference draw per swap; returns the shuffled list and the draws used."""
    items = list(items)
    draws = splitmix64_reference(seed, max(len(items) - 1, 0))
    for i, draw in zip(range(len(items) - 1, 0, -1), draws):
        j = draw % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items, len(draws)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, MASK) | st.sampled_from([0, 1, MASK, MASK - 0x9E3779B97F4A7C15]),
    st.sampled_from([0, 1, 2, 3]) | st.integers(0, 3000),
)
def test_shuffle_matches_scalar_fisher_yates(seed, length):
    rng = SplitMix64(seed)
    items = list(range(length))
    rng.shuffle(items)
    expected, used = fisher_yates_reference(seed, range(length))
    assert items == expected
    # the stream continues exactly after the draws the shuffle took
    assert rng.next_u64() == splitmix64_reference(seed, used + 1)[-1]


@given(st.integers(0, MASK) | st.just(MASK), st.integers(0, 300), st.integers(0, 5))
def test_block_draws_equal_scalar_draws(seed, count, after):
    block = SplitMix64(seed)
    drawn = block.draws(count)
    assert drawn.dtype == np.uint64 and drawn.shape == (count,)
    tail = [block.next_u64() for _ in range(after)]
    assert drawn.tolist() + tail == splitmix64_reference(seed, count + after)


def test_shuffle_golden_seed_42():
    # hand trace: draws mod (10, 9, ..., 2) are 3, 1, 2, 2, 4, 2, 1, 2, 1
    draws = splitmix64_reference(42, 9)
    assert [d % (10 - i) for i, d in enumerate(draws)] == [3, 1, 2, 2, 4, 2, 1, 2, 1]
    items = list(range(10))
    SplitMix64(42).shuffle(items)
    assert items == [0, 9, 5, 8, 6, 4, 7, 2, 1, 3]


def test_numpy_integer_seed_is_the_same_seed():
    assert SplitMix64(np.int64(42)).draws(3).tolist() == splitmix64_reference(42, 3)
    assert SplitMix64(np.uint64(MASK)).next_u64() == splitmix64_reference(MASK, 1)[0]


def test_shuffle_is_seeded_permutation():
    items = list(range(12))
    a, b = list(items), list(items)
    SplitMix64(9).shuffle(a)
    SplitMix64(9).shuffle(b)
    assert a == b
    assert sorted(a) == items
