"""Optional compiled kernels for the two hottest execution loops.

The vectorized engines (:mod:`repro.scheduling.vectorized_engine`,
:mod:`repro.scheduling.vectorized_async_engine`) already replaced per-node
interpretation with whole-network NumPy array operations.  What remains on
the table is the per-round *dispatch* cost of those operations: every round
pays a handful of temporary allocations, fancy-indexing gathers and
``bincount`` passes whose combined constant factor dominates once the dense
tables are small enough to live in cache.

This module compiles the same loops to native code with numba's
``@njit(cache=True)`` when numba is importable, and it is the **kernel**
tier of the backend ladder (python → vectorized → kernel) negotiated by
:func:`repro.api.backends.negotiate_backend`:

* :func:`sync_run_counter` — the fully fused synchronous round loop
  (census → table lookup → SplitMix64 pick → letter write, repeated until
  an output configuration or the round bound), used when no per-round
  observer is attached;
* :func:`sync_census_cells` / :func:`sync_apply` — the two-stage split of
  one round, used when a per-round observer must see every round;
* :func:`shard_round` — the per-worker round body of
  :class:`~repro.scheduling.sharded_engine.ShardedVectorizedEngine`,
  operating on a ``lo:hi`` row slice of the shared-memory state;
* :func:`async_bucket_census` / :func:`async_bucket_apply` — the bucket
  census and optimistic bucket apply of the vectorized asynchronous engine.

Every kernel is **bitwise-identical** to the NumPy expression it replaces:
the loops perform the same integer operations in the same order, and the
SplitMix64 helpers mirror :func:`repro.scheduling.adversary.mix64` exactly.
That identity is what lets the store canonicalize the ``backend`` field away
(schema v3) and lets ``backend="auto"`` climb tiers without changing any
result.

numba is an *optional* dependency.  When it is absent the kernels still
exist as the raw Python functions they were compiled from — the parity
suite executes them that way (under ``np.errstate(over="ignore")``, because
SplitMix64 relies on uint64 wraparound) so the bitwise contract is tested
even on hosts without numba — but the backend registry reports the tier as
unavailable and ``backend="auto"`` stays on the vectorized tier, loudly.

Test hooks: setting :data:`_FORCE_MODE` to ``"absent"`` makes the probe
report numba as missing (exercising degradation without uninstalling
anything), ``"pure"`` makes the tier report available while executing the
uncompiled kernel bodies (exercising the kernel code paths bitwise on
hosts without numba).
"""

from __future__ import annotations

from typing import Any

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

try:  # numba is optional; its absence selects the pure-python kernel bodies.
    import numba
except ImportError:  # pragma: no cover - the common case in minimal installs
    numba = None

from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.scheduling.picks import counter_base_key
from repro.scheduling.vectorized_engine import DEFAULT_MAX_ROUNDS, VectorizedEngine

#: Detail string reported (and asserted by tests) when numba is missing.
KERNEL_UNAVAILABLE_REASON = "numba is not installed"

#: Test hook: ``None`` probes the real environment, ``"absent"`` simulates a
#: missing numba, ``"pure"`` reports the tier available while running the
#: uncompiled kernel bodies.  Monkeypatched by the degradation/parity tests.
_FORCE_MODE: str | None = None


def kernel_availability() -> tuple[bool, str]:
    """Whether the kernel tier can run here, plus a human-readable detail.

    The probe is what :func:`repro.api.backends.negotiate_backend` consults;
    the detail lands verbatim in degradation reasons and in the
    ``repro run --list-backends`` census.
    """
    if _FORCE_MODE == "absent":
        return False, KERNEL_UNAVAILABLE_REASON
    if _FORCE_MODE == "pure":
        return True, "pure-python kernel bodies (test mode)"
    if np is None:  # pragma: no cover - minimal installs only
        return False, "NumPy is not installed"
    if numba is None:
        return False, KERNEL_UNAVAILABLE_REASON
    return True, f"numba {numba.__version__} (@njit, cached)"


def require_kernels() -> None:
    """Raise a clear :class:`ExecutionError` when the kernel tier is absent."""
    available, detail = kernel_availability()
    if not available:
        raise ExecutionError(
            f"backend='kernel' requested but the kernel tier is unavailable: "
            f"{detail}"
        )


# ---------------------------------------------------------------------- #
# Kernel registry: raw Python bodies, compiled on first use                #
# ---------------------------------------------------------------------- #
_RAW: dict[str, Any] = {}
_COMPILED: dict[str, Any] = {}


def _kernel(fn):
    """Register *fn* as a kernel body (njit-compiled lazily when possible)."""
    _RAW[fn.__name__] = fn
    return fn


def _call(name: str, *args):
    """Run kernel *name*: compiled when numba is usable, pure-python otherwise.

    The pure path wraps execution in ``np.errstate(over="ignore")`` — the
    SplitMix64 arithmetic wraps uint64 scalars on purpose (same convention
    as ``_u01_np`` in :mod:`repro.scheduling.adversary`).
    """
    if numba is not None and _FORCE_MODE != "pure":
        impl = _COMPILED.get(name)
        if impl is None:
            impl = numba.njit(cache=True)(_RAW[name])
            _COMPILED[name] = impl
        return impl(*args)
    with np.errstate(over="ignore"):
        return _RAW[name](*args)


# ---------------------------------------------------------------------- #
# SplitMix64 (scalar) — mirrors repro.scheduling.adversary.mix64 exactly   #
# ---------------------------------------------------------------------- #
def _mix64_body(z):
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


if numba is not None:  # the kernels below resolve this global at compile time
    _mix64_k = numba.njit(cache=True, inline="always")(_mix64_body)
else:
    _mix64_k = _mix64_body


# ---------------------------------------------------------------------- #
# Synchronous round kernels                                                #
# ---------------------------------------------------------------------- #
@_kernel
def sync_census_cells(
    state,
    last_letter,
    edge_src,
    edge_dst,
    strides,
    state_base,
    cell_offset,
    cell_count,
    bounding,
    num_letters,
    option_offset,
    option_count,
):
    """Stage 1 of a synchronous round: census + table lookup.

    Fills ``option_offset``/``option_count`` (one slot per node) with the
    option-pool coordinates of every node's current (state, observation)
    cell — the exact values the NumPy path computes with ``bincount`` +
    stride folding in ``VectorizedEngine._step_round_eager``.
    """
    n = state.shape[0]
    counts = np.zeros(n * num_letters, dtype=np.int64)
    for e in range(edge_src.shape[0]):
        counts[edge_src[e] * num_letters + last_letter[edge_dst[e]]] += 1
    for i in range(n):
        s = state[i]
        base = i * num_letters
        obs = 0
        for letter in range(num_letters):
            c = counts[base + letter]
            if c > bounding:
                c = bounding
            obs += c * strides[s, letter]
        cell = state_base[s] + obs
        option_offset[i] = cell_offset[cell]
        option_count[i] = cell_count[cell]


@_kernel
def sync_apply(state, last_letter, option_offset, pick, option_next, option_emit):
    """Stage 2 of a synchronous round: apply transitions, deliver letters.

    Mutates ``state``/``last_letter`` in place and returns the number of
    transmitted messages — bitwise the ``option_next[selected]`` /
    ``np.where(transmitting, ...)`` block of the NumPy path.
    """
    sent = 0
    for i in range(state.shape[0]):
        sel = option_offset[i] + pick[i]
        state[i] = option_next[sel]
        emit = option_emit[sel]
        if emit >= 0:
            sent += 1
            last_letter[i] = emit
    return sent


@_kernel
def sync_run_counter(
    state,
    last_letter,
    edge_src,
    edge_dst,
    strides,
    state_base,
    cell_offset,
    cell_count,
    option_next,
    option_emit,
    output_mask,
    node_keys,
    base_key,
    bounding,
    num_letters,
    start_round,
    max_rounds,
):
    """The fully fused synchronous round loop.

    Runs rounds in place until every node sits in an output state or the
    round bound is hit; returns ``(round_index, messages_sent, reached)``.
    Picks are drawn exactly as :func:`repro.scheduling.picks.counter_picks`
    draws them: ``SplitMix64(round_key ^ node_key) mod k`` for multi-option
    nodes, index 0 (no draw) otherwise.
    """
    n = state.shape[0]
    num_edges = edge_src.shape[0]
    counts = np.zeros(n * num_letters, dtype=np.int64)
    seeded = _mix64_k(base_key)
    messages = 0
    round_index = start_round
    while True:
        done = True
        for i in range(n):
            if not output_mask[state[i]]:
                done = False
                break
        if done or round_index >= max_rounds:
            return round_index, messages, done
        for k in range(counts.shape[0]):
            counts[k] = 0
        for e in range(num_edges):
            counts[edge_src[e] * num_letters + last_letter[edge_dst[e]]] += 1
        round_key = _mix64_k(seeded ^ np.uint64(round_index))
        for i in range(n):
            s = state[i]
            base = i * num_letters
            obs = 0
            for letter in range(num_letters):
                c = counts[base + letter]
                if c > bounding:
                    c = bounding
                obs += c * strides[s, letter]
            cell = state_base[s] + obs
            count = cell_count[cell]
            if count > 1:
                pick = np.int64(
                    _mix64_k(round_key ^ node_keys[i]) % np.uint64(count)
                )
            else:
                pick = 0
            sel = cell_offset[cell] + pick
            state[i] = option_next[sel]
            emit = option_emit[sel]
            if emit >= 0:
                messages += 1
                last_letter[i] = emit
        round_index += 1


@_kernel
def shard_round(
    state,
    read,
    write,
    lo,
    hi,
    edge_src,
    edge_dst,
    strides,
    state_base,
    cell_offset,
    cell_count,
    option_next,
    option_emit,
    node_keys,
    round_key,
    bounding,
    num_letters,
):
    """One shard worker's slice of a synchronous round (rows ``lo:hi``).

    ``edge_src``/``edge_dst`` are the worker's edge slice with *local*
    source rows (``0..hi-lo``) and global destination rows; ``read`` and
    ``write`` are the round's ping-pong letter buffers.  Returns the number
    of messages this shard transmitted.  Bitwise the NumPy round body of
    ``sharded_engine._worker_loop``.
    """
    span = hi - lo
    counts = np.zeros(span * num_letters, dtype=np.int64)
    for e in range(edge_src.shape[0]):
        counts[edge_src[e] * num_letters + read[edge_dst[e]]] += 1
    sent = 0
    for i in range(span):
        node = lo + i
        s = state[node]
        base = i * num_letters
        obs = 0
        for letter in range(num_letters):
            c = counts[base + letter]
            if c > bounding:
                c = bounding
            obs += c * strides[s, letter]
        cell = state_base[s] + obs
        count = cell_count[cell]
        if count > 1:
            pick = np.int64(_mix64_k(round_key ^ node_keys[i]) % np.uint64(count))
        else:
            pick = 0
        sel = cell_offset[cell] + pick
        state[node] = option_next[sel]
        emit = option_emit[sel]
        if emit >= 0:
            sent += 1
            write[node] = emit
        else:
            write[node] = read[node]
    return sent


# ---------------------------------------------------------------------- #
# Asynchronous bucket kernels                                              #
# ---------------------------------------------------------------------- #
@_kernel
def async_bucket_census(port, edges, seg, query_ids, bounding, counts):
    """Saturated per-event match census over a bucket's ragged port edges.

    Adds, into ``counts`` (one slot per bucket event, pre-zeroed by the
    caller), the number of ports of event ``seg[k]`` whose content equals
    the event's query letter, clamped at ``bounding`` — bitwise the
    ``bincount``-with-boolean-weights + ``np.minimum`` pair of the NumPy
    path.
    """
    for k in range(edges.shape[0]):
        b = seg[k]
        if port[edges[k]] == query_ids[b]:
            counts[b] += 1
    for i in range(counts.shape[0]):
        if counts[i] > bounding:
            counts[i] = bounding


@_kernel
def async_bucket_apply(
    option_offset,
    pick,
    option_next,
    option_emit,
    output_mask,
    state_batch,
    non_output,
    may_terminate,
    new_states,
    emits,
):
    """Optimistic bucket apply: transitions + running-counter termination scan.

    Fills ``new_states``/``emits`` for each bucket event and tracks the
    number of non-output nodes after every event (the NumPy path's
    ``non_output + cumsum(old_output - new_output)``).  Under
    ``may_terminate`` the scan stops at the first event that leaves zero
    running nodes.  Returns ``(processed, running, terminated)`` where
    ``running`` is the counter after the last processed event.
    """
    running = non_output
    size = option_offset.shape[0]
    processed = size
    terminated = False
    for i in range(size):
        sel = option_offset[i] + pick[i]
        next_state = option_next[sel]
        new_states[i] = next_state
        emits[i] = option_emit[sel]
        was_output = output_mask[state_batch[i]]
        now_output = output_mask[next_state]
        if was_output and not now_output:
            running += 1
        elif now_output and not was_output:
            running -= 1
        if may_terminate and running == 0:
            processed = i + 1
            terminated = True
            break
    return processed, running, terminated


# ---------------------------------------------------------------------- #
# The kernel-tier synchronous engine                                       #
# ---------------------------------------------------------------------- #
class KernelVectorizedEngine(VectorizedEngine):
    """A :class:`VectorizedEngine` whose round loop runs as compiled kernels.

    Construction mirrors the base class but requires the *eager* closure:
    lazy tables grow their pools mid-round through Python callbacks, which
    a compiled loop cannot interleave, so lazily tabulated protocols raise
    :class:`ProtocolNotVectorizableError` (``backend="auto"`` then settles
    on the vectorized tier — recorded, never silent).

    With no per-round observer attached, ``run`` executes the whole round
    loop in one :func:`sync_run_counter` call; an observed run steps through
    the two-stage :func:`sync_census_cells`/:func:`sync_apply` pair so the
    observer sees every round.
    """

    def __init__(
        self,
        graph,
        protocol,
        *,
        seed=None,
        inputs=None,
        observer=None,
        compiled=None,
        table=None,
        rng_node_keys=None,
        initial_states=None,
        initial_letters=None,
    ) -> None:
        require_kernels()
        if table is not None:
            raise ProtocolNotVectorizableError(
                "the kernel backend runs the eager closure only; "
                "a lazy table was supplied"
            )
        hint = getattr(protocol, "tabulation_hint", lambda: "eager")()
        if compiled is None and hint == "lazy":
            raise ProtocolNotVectorizableError(
                "the protocol hints a lazy tabulation; the kernel backend "
                "runs the eager closure only"
            )
        super().__init__(
            graph,
            protocol,
            seed=seed,
            inputs=inputs,
            observer=observer,
            compiled=compiled,
            rng_node_keys=rng_node_keys,
            initial_states=initial_states,
            initial_letters=initial_letters,
        )

    def _step_round_eager(self) -> None:
        compiled = self._compiled
        n = self._graph.num_nodes
        option_offset = np.empty(n, dtype=np.int64)
        option_count = np.empty(n, dtype=np.int64)
        _call(
            "sync_census_cells",
            self._state,
            self._last_letter,
            self._edge_src,
            self._edge_dst,
            compiled.strides,
            compiled.state_base,
            compiled.cell_offset,
            compiled.cell_count,
            compiled.tabulation.bounding,
            compiled.num_letters,
            option_offset,
            option_count,
        )
        pick = self._draw_picks(option_count)
        self._messages += int(
            _call(
                "sync_apply",
                self._state,
                self._last_letter,
                option_offset,
                pick,
                compiled.option_next,
                compiled.option_emit,
            )
        )

    def run(
        self,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        *,
        raise_on_timeout: bool = False,
    ):
        if self._observer is not None:
            return super().run(
                max_rounds=max_rounds, raise_on_timeout=raise_on_timeout
            )
        compiled = self._compiled
        rounds, messages, reached = _call(
            "sync_run_counter",
            self._state,
            self._last_letter,
            self._edge_src,
            self._edge_dst,
            compiled.strides,
            compiled.state_base,
            compiled.cell_offset,
            compiled.cell_count,
            compiled.option_next,
            compiled.option_emit,
            compiled.output_mask,
            self._node_keys,
            np.uint64(counter_base_key(self._pick_seed)),
            compiled.tabulation.bounding,
            compiled.num_letters,
            self._round,
            max_rounds,
        )
        self._round = int(rounds)
        self._messages += int(messages)
        reached = bool(reached)
        result = self._build_result(reached)
        if not reached and raise_on_timeout:
            raise OutputNotReachedError(
                f"no output configuration within {max_rounds} rounds", result
            )
        return result
