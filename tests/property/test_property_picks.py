"""Property-based tests for the protocol-pick stream (hypothesis).

Every engine draws its coins from :mod:`repro.scheduling.picks`: the
interpreters one scalar pick at a time, the array engines, kernels and
shard workers a whole round or bucket at once.  Interpreter ≡ vectorized ≡
sharded parity rests on the scalar and the batch draws agreeing bitwise,
which these properties pin over the full coordinate ranges.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.picks import (
    async_counter_pick,
    async_counter_picks,
    async_pick_base,
    counter_pick,
    counter_picks,
    counter_round_key,
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)
indexes = st.integers(min_value=0, max_value=2**63 - 1)
#: (64-bit node key, option count) pairs — one per node of a round/bucket.
nodes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 16)),
    min_size=1,
    max_size=32,
)


def _arrays(pairs):
    keys = np.asarray([key for key, _ in pairs], dtype=np.uint64)
    counts = np.asarray([count for _, count in pairs], dtype=np.int64)
    return keys, counts


@given(seed=seeds, round_index=indexes, pairs=nodes)
@settings(max_examples=200)
def test_sync_batch_picks_equal_the_interpreters_scalar_picks(seed, round_index, pairs):
    keys, counts = _arrays(pairs)
    batch = counter_picks(seed, round_index, keys, counts).tolist()
    round_key = counter_round_key(seed, round_index)
    # The interpreter draws only for multi-option nodes; the rest take 0.
    scalar = [
        counter_pick(round_key, key, count) if count > 1 else 0 for key, count in pairs
    ]
    assert batch == scalar
    assert all(0 <= pick < count for pick, (_, count) in zip(batch, pairs))


@given(seed=seeds, pairs=nodes, steps=st.lists(indexes, min_size=32, max_size=32))
@settings(max_examples=200)
def test_async_batch_picks_equal_the_scalar_picks(seed, pairs, steps):
    keys, counts = _arrays(pairs)
    steps = steps[: len(pairs)]
    base = async_pick_base(seed)
    batch = async_counter_picks(base, keys, np.asarray(steps, dtype=np.int64), counts)
    scalar = [
        async_counter_pick(base, key, step, count) if count > 1 else 0
        for (key, count), step in zip(pairs, steps)
    ]
    assert batch.tolist() == scalar
    assert all(0 <= pick < count for pick, (_, count) in zip(batch.tolist(), pairs))
