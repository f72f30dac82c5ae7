"""The protocol-pick stream: one counter-based coin per node and step.

In the paper's model a randomized node picks uniformly at random from its
transition's option set.  Every engine realizes that coin with the same
pure function — a SplitMix64 hash of the run's seed and the pick's
coordinates — so the interpreters, the array engines, the compiled kernels
and the shard workers all draw bitwise-identical picks with no generator
state to share, replay or rewind:

* synchronous picks are keyed on ``(seed, round, original node id)``:
  :func:`counter_round_key` mixes the per-round key once, then
  :func:`counter_pick` (one node) and :func:`counter_picks` (a whole
  round) hash each node's key into it;
* asynchronous picks are keyed on ``(seed, original node id, step
  index)``: :func:`async_pick_base` is the per-run key,
  :func:`async_counter_pick` and :func:`async_counter_picks` the scalar
  and batch draws.

A node with a single option takes index 0 without drawing.  Because the
keys are *original* node ids, the stream is invariant under node
permutations and shard counts — which is why ``shards=`` changes no
result.  An unseeded run draws fresh randomness: engines resolve
``seed=None`` once per run with :func:`resolve_pick_seed` and hand the
resolved value to their shard workers.
"""

from __future__ import annotations

import secrets

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

from repro.scheduling.adversary import _MASK64, _mix64_np, mix64

#: Stream tag keeping option-pick draws independent of the adversary streams.
_PICK_STREAM = 0x5049_434B  # "PICK"
#: Stream tag separating the asynchronous option-pick draws from the
#: synchronous ones (and both from the adversary draw streams).
_ASYNC_PICK_STREAM = 0x4153_5049_434B  # "ASPICK"


def resolve_pick_seed(seed: int | None) -> int:
    """The seed a run's picks are keyed on: *seed*, or fresh entropy.

    ``seed=None`` means fresh randomness per run.  The entropy comes from
    the operating system rather than the ``random`` module, so forked pool
    workers never share an unseeded stream.
    """
    return secrets.randbits(64) if seed is None else seed


def counter_base_key(seed: int) -> int:
    """The seed-level base key of the synchronous pick stream.

    Factored out of :func:`counter_round_key` so the compiled kernels
    (:mod:`repro.scheduling.kernels`) can mix the per-round component
    natively while staying on the exact same stream.
    """
    return (seed & _MASK64) ^ _PICK_STREAM


def counter_round_key(seed: int, round_index: int) -> int:
    """The per-round key of the synchronous pick stream.

    A pure function of ``(seed, round_index)``, so any partition of the node
    set can draw its slice of the round's randomness independently.
    """
    return mix64(mix64(counter_base_key(seed)) ^ (round_index & _MASK64))


def counter_pick(round_key: int, node_key: int, n_options: int) -> int:
    """One node's synchronous pick; the scalar form of :func:`counter_picks`."""
    return mix64(round_key ^ (node_key & _MASK64)) % n_options


def counter_picks(seed, round_index, node_keys, option_count):
    """Per-node uniform option picks for one synchronous round.

    ``pick[i] = SplitMix64(round_key ^ node_keys[i]) mod option_count[i]``
    for every node with more than one option; single-option nodes take
    index 0 without drawing.  ``node_keys`` carries the *original* node ids
    (``uint64``), which keeps the draws invariant under relabelling.
    """
    pick = np.zeros(option_count.shape[0], dtype=np.int64)
    multi = option_count > 1
    if multi.any():
        key = np.uint64(counter_round_key(seed, round_index))
        hashed = _mix64_np(key ^ node_keys[multi])
        pick[multi] = (hashed % option_count[multi].astype(np.uint64)).astype(np.int64)
    return pick


def async_pick_base(seed: int) -> int:
    """Seed-level key of the asynchronous pick stream.

    Derived from :func:`counter_base_key` but tagged apart, so a sync and an
    async run under the same seed never share draws.
    """
    return mix64(counter_base_key(seed) ^ _ASYNC_PICK_STREAM)


def async_counter_pick(base: int, node_key: int, step: int, n_options: int) -> int:
    """One asynchronous pick — a pure function of ``(base, node_key, step)``.

    The asynchronous engines draw per *node step*, not per round, so the
    counter coordinate is the node's 1-based step index.
    """
    return mix64(mix64(base ^ (node_key & _MASK64)) ^ (step & _MASK64)) % n_options


def async_counter_picks(base, node_keys, steps, option_count):
    """Batch variant of :func:`async_counter_pick`, bitwise-identical to it."""
    pick = np.zeros(option_count.shape[0], dtype=np.int64)
    multi = option_count > 1
    if multi.any():
        hashed = _mix64_np(np.uint64(base) ^ node_keys[multi])
        hashed = _mix64_np(hashed ^ steps[multi].astype(np.uint64))
        pick[multi] = (hashed % option_count[multi].astype(np.uint64)).astype(np.int64)
    return pick
