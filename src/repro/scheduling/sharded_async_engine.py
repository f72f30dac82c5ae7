"""Intra-run sharded execution of the time-bucketed asynchronous engine.

PR 7 sharded the synchronous engine; the adversarial experiments (E3/A2)
and the Theorem 3.1 synchronizer validation still ran single-core per run.
This module splits one asynchronous run across ``shards=N`` long-lived
worker processes: each worker owns a contiguous range of BFS-relabelled
nodes — its pending steps, its receiver-side per-edge FIFO buffers, its
sender-side arrival clamps — and the only cross-shard traffic per bucket
is the boundary-crossing deliveries, exchanged through a preallocated
double-buffered halo.

Why buckets shard cleanly
-------------------------
The bucket invariant of :class:`~repro.scheduling.vectorized_async_engine.
VectorizedAsynchronousEngine` is that nothing a batch member does can
influence another batch member: every emission of a bucket-``k`` step
arrives at or after the horizon, strictly after every bucket-``k`` step
time.  A delivery crossing a shard boundary during bucket ``k`` therefore
cannot be observed before bucket ``k+1`` — so writing it into a halo slot
and ingesting it at the *start* of the next bucket is exactly equivalent
to the unsharded engine's immediate append.  Each directed cut edge
carries at most one delivery per bucket (every node steps at most once per
bucket), so the halo is a fixed ``2 × H`` slot array (``H`` = directed cut
edges, double-buffered by bucket parity): single writer, single reader,
no allocation, ``16·H`` bytes of traffic per bucket.

Timing needs no coordination: the shipped adversary schedules are pure
counter functions of ``(seed, original node id, step)``
(:class:`~repro.scheduling.adversary.CounterBasedSchedule`), so every
worker computes its slice's step times, margins and delays independently
and bitwise-identically to the unsharded engine.  The parent only reads
the shared ``next_time``/``margin`` slices to pick each bucket's horizon.

Termination is the one global decision.  A bucket that could complete the
run (``non_output <= batch size``, the unsharded engine's own criterion)
runs in **two phases**: workers compute their slice optimistically and
publish ``(step time, node, output delta)`` triples; the parent merges
them in the canonical ``(time, original id)`` order, locates the exact
step that zeroes the non-output counter, and broadcasts the cutoff while
the workers are parked at the mid-bucket fence; workers then commit only
the steps at or before it.  Ordinary buckets (termination impossible —
the running counter cannot reach zero) commit in one phase and meet the
parent only at the bucket fence, exactly like the synchronous shards.

Determinism contract.  Sharded asynchronous execution is **bitwise
identical** to the unsharded engines — the vectorized engine and the
interpreter alike — for every shard count.  Every worker runs the unsharded
engine's own :class:`~repro.scheduling.vectorized_async_engine.BucketSlice`
over its range, with the halo as its emission sink, and the parent is the
unsharded engine with the bucket replaced by the fence exchange: the
initial timing, ``run()`` and the result are inherited, and the completing
step is located by the same :func:`~repro.scheduling.
vectorized_async_engine.completing_step`.  The multi-option picks are pure
hashes of ``(seed, original node id, step)``
(:func:`~repro.scheduling.picks.async_counter_pick`), the adversary draws
are pure counter functions, and every remaining bucket computation is
per-node arithmetic that slicing cannot change.  The parent resolves the
run's pick key once and hands it to every worker.
"""

from __future__ import annotations

from collections.abc import Mapping
from queue import Empty
from typing import Any

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

from repro.core.budgets import DEFAULT_MAX_EVENTS
from repro.core.errors import ExecutionError
from repro.core.protocol import Protocol
from repro.core.results import ExecutionResult
from repro.graphs.graph import Graph
from repro.scheduling.adversary import AdversaryPolicy
from repro.scheduling.compiled import LazyStrictTable
from repro.scheduling.shard_pool import DEFAULT_BARRIER_TIMEOUT, STOP, ShardPool
from repro.scheduling.vectorized_async_engine import (
    BucketSlice,
    VectorizedAsynchronousEngine,
    bucket_tables,
    completing_step,
)

#: Control words written by the parent before releasing the bucket fence
#: (the pool writes STOP).
_RUN = 1
_COLLECT = 2

#: Fence numbers: workers park at the bucket fence between buckets, and a
#: two-phase bucket parks them at the mid fence while the parent merges.
_BUCKET, _MID = 0, 1

#: Bucket modes (control word 1).
_NORMAL = 0
_TWO_PHASE = 1

#: Per-worker counters a worker publishes after every bucket, named after
#: the :class:`BucketSlice` attributes they copy.
_STATS = ("non_output", "events", "steps_taken", "messages", "max_parameter", "last_time")


# --------------------------------------------------------------------- #
# Worker side                                                            #
# --------------------------------------------------------------------- #
class _Halo:
    """The cross-shard emission sink of one worker's slice.

    Each directed cut edge owns one slot per bucket parity: the sender's
    worker writes it during bucket ``k`` and the receiver's worker folds it
    into its FIFOs at the start of bucket ``k+1`` — exactly when the
    unsharded engine's immediate append would first become observable.
    """

    def __init__(self, worker_id, edge_lo, edge_hi, tables, dyn, alphabet_size) -> None:
        self.index = tables["halo_index"][edge_lo:edge_hi]
        recv_lo, recv_hi = tables["halo_recv_bounds"][worker_id : worker_id + 2]
        self.recv_hid = tables["halo_recv_hid"][recv_lo:recv_hi].tolist()
        self.recv_slot = (tables["halo_recv_slot"][recv_lo:recv_hi] - edge_lo).tolist()
        self.arrival = dyn["halo_arrival"]
        self.letter = dyn["halo_letter"]
        # Cross-worker letter-id consistency: every worker's table
        # pre-interns the declared alphabet in a fixed order, so alphabet
        # letter ids agree between workers.  Locally interned extras must
        # never cross a shard boundary.
        self.alphabet_size = alphabet_size
        self.bucket = 0

    def send(self, edges, arrivals, letters):
        """Write the deliveries over cut edges into this bucket's slots;
        return the mask of the deliveries that stay in the range."""
        slots = self.index[edges]
        cut = slots >= 0
        if cut.any():
            outside = letters[cut][letters[cut] >= self.alphabet_size]
            if outside.size:
                raise ExecutionError(
                    "cross-shard emission of a letter outside the declared "
                    f"alphabet (id {int(outside[0])} >= {self.alphabet_size}); letter "
                    "ids are only shard-consistent for declared alphabet letters"
                )
            self.arrival[self.bucket % 2, slots[cut]] = arrivals[cut]
            self.letter[self.bucket % 2, slots[cut]] = letters[cut]
        return ~cut

    def receive(self, part: BucketSlice) -> None:
        """Fold the previous bucket's cross-shard deliveries into the FIFOs."""
        arrivals = self.arrival[(self.bucket + 1) % 2]
        letters = self.letter[(self.bucket + 1) % 2]
        for h, slot in zip(self.recv_hid, self.recv_slot):
            arrival = float(arrivals[h])
            if arrival == np.inf:
                continue
            part.pending[slot].append((arrival, int(letters[h])))
            if arrival < part.pend_head[slot]:
                part.pend_head[slot] = arrival
            arrivals[h] = np.inf


def _bucket_loop(
    worker_id,
    lo,
    hi,
    tables,
    dyn,
    fences,
    pick_base,
    protocol,
    schedule,
    inputs,
    static_bound,
    queue,
) -> None:
    """Init, then the bucket loop over permuted nodes ``lo:hi``."""
    bucket_fence, mid_fence = fences
    control, control_f = dyn["control"], dyn["control_f"]
    table = LazyStrictTable(protocol)
    indptr = tables["indptr"]
    halo = _Halo(worker_id, int(indptr[lo]), int(indptr[hi]), tables, dyn, table.alphabet_size)
    part = BucketSlice(
        lo, hi, tables, dyn, table, protocol, inputs, schedule, static_bound, pick_base, halo
    )

    def publish() -> None:
        for name in _STATS:
            dyn[name][worker_id] = getattr(part, name)

    publish()
    while True:
        # Parked: the previous bucket (or the init round) is published.
        bucket_fence.wait()
        command = int(control[0])
        if command == STOP:
            return
        if command == _COLLECT:
            queue.put((worker_id, part.decoded_states()))
            return
        halo.receive(part)
        bucket = part.compute(*part.select(float(control_f[0])))
        cutoff = None
        if control[1] == _TWO_PHASE:
            # Publish (step time, original id, output delta) of every step
            # and let the parent locate the completing one.
            idx, times, _, _, deltas = bucket
            dyn["tp_count"][worker_id] = idx.size
            dyn["tp_time"][lo : lo + idx.size] = times
            dyn["tp_key"][lo : lo + idx.size] = part.keys[idx]
            dyn["tp_delta"][lo : lo + idx.size] = deltas
            mid_fence.wait()
            if control_f[1] != np.inf:
                cutoff = (float(control_f[1]), int(control[2]))
        part.commit(bucket, cutoff)
        halo.bucket += 1
        publish()


# --------------------------------------------------------------------- #
# Parent-side engine                                                     #
# --------------------------------------------------------------------- #
class ShardedAsyncEngine(VectorizedAsynchronousEngine):
    """Executes a strict protocol under adversarial timing across shards.

    A :class:`~repro.scheduling.vectorized_async_engine.
    VectorizedAsynchronousEngine` whose bucket is run by the shard workers:
    the parent picks each horizon from the shared ``next_time``/``margin``
    arrays and, when the bucket may complete the run, merges the workers'
    tentative steps.  A sharded engine is single-run (the final-state
    collection retires the workers).  Engines own worker processes and
    shared-memory segments: call :meth:`close` (or use the engine as a
    context manager) to release them.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: Protocol,
        *,
        adversary: AdversaryPolicy | None = None,
        seed: int | None = None,
        adversary_seed: int | None = None,
        inputs: Mapping[int, Any] | None = None,
        shards: int = 2,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        self._pool = ShardPool(graph, shards, fences=2, barrier_timeout=barrier_timeout)
        self._ran = False
        super().__init__(
            graph,
            protocol,
            adversary=adversary,
            seed=seed,
            adversary_seed=adversary_seed,
            inputs=inputs,
        )

    def _keys(self):
        return np.asarray(self._pool.partition.inv, dtype=np.int64)

    def _allocate(self, keys, lengths, inputs, table) -> None:
        """Lay out the halo and share the run's arrays with the workers."""
        pool = self._pool
        n = self._graph.num_nodes
        num_shards = pool.num_shards
        tables = bucket_tables(*pool.permuted_csr(), keys)
        indptr, indices, reverse = tables["indptr"], tables["indices"], tables["reverse"]
        row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        bounds = np.asarray(pool.partition.bounds, dtype=np.int64)
        shard_of = np.searchsorted(bounds, np.arange(n, dtype=np.int64), side="right") - 1
        cut_eids = np.flatnonzero(shard_of[row] != shard_of[indices])
        halo_size = int(cut_eids.size)
        tables["halo_index"] = np.full(len(indices), -1, dtype=np.int64)
        tables["halo_index"][cut_eids] = np.arange(halo_size, dtype=np.int64)
        recv_shard = shard_of[indices[cut_eids]]
        recv_order = np.argsort(recv_shard, kind="stable").astype(np.int64)
        tables["halo_recv_hid"] = recv_order
        tables["halo_recv_slot"] = reverse[cut_eids[recv_order]]
        tables["halo_recv_bounds"] = np.searchsorted(
            recv_shard[recv_order], np.arange(num_shards + 1)
        ).astype(np.int64)
        dynamic_arrays = {
            # next_time/margin live in permuted order: shard slices are
            # contiguous; the parent only ever reduces over them.
            "next_time": lengths,
            "margin": np.zeros(n),
            "halo_arrival": np.full((2, halo_size), np.inf),
            "halo_letter": np.zeros((2, halo_size), dtype=np.int64),
            "non_output": np.zeros(num_shards, dtype=np.int64),
            "events": np.zeros(num_shards, dtype=np.int64),
            "steps_taken": np.zeros(num_shards, dtype=np.int64),
            "messages": np.zeros(num_shards, dtype=np.int64),
            "max_parameter": np.zeros(num_shards),
            "last_time": np.full(num_shards, -np.inf),
            "tp_count": np.zeros(num_shards, dtype=np.int64),
            "tp_time": np.zeros(n),
            "tp_key": np.zeros(n, dtype=np.int64),
            "tp_delta": np.zeros(n, dtype=np.int64),
            "control": np.zeros(8, dtype=np.int64),
            "control_f": np.zeros(4),
        }
        self._queue = pool.ctx.Queue()
        pool.allocate(
            tables,
            dynamic_arrays,
            _bucket_loop,
            self._pick_base,
            self._protocol,
            self._schedule,
            inputs,
            self._static_bound,
            self._queue,
        )

        #: Exactly the partition fields of the result metadata.
        self.shard_info: dict[str, Any] = {
            "shard_count": num_shards,
            "cut_edges": pool.partition.cut_edges,
            # One (arrival f64, letter i64) halo slot per directed cut edge
            # per bucket, double-buffered across bucket parity.
            "halo_bytes_per_bucket": halo_size * 16,
            "partition_strategy": pool.partition.strategy,
        }

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        *,
        raise_on_timeout: bool = False,
    ) -> ExecutionResult:
        """Drive all shards bucket by bucket to the first output config."""
        if self._ran:
            raise ExecutionError("a ShardedAsyncEngine is single-run; build a fresh engine")
        self._ran = True
        self._pool.gather(_BUCKET)  # init round: states, margins and stats published
        return super().run(max_events, raise_on_timeout=raise_on_timeout)

    def _bucket(self) -> None:
        pool = self._pool
        dyn = pool.dyn
        next_time = dyn["next_time"]
        horizon = float((next_time + dyn["margin"]).min())
        non_output = int(dyn["non_output"].sum())
        two_phase = non_output <= int((next_time < horizon).sum())
        dyn["control"][:2] = _RUN, _TWO_PHASE if two_phase else _NORMAL
        dyn["control_f"][0] = horizon
        pool.release(_BUCKET)
        cutoff = None
        if two_phase:
            pool.gather(_MID)
            cutoff = self._merge_cutoff(non_output)
            dyn["control_f"][1], dyn["control"][2] = cutoff or (np.inf, -1)
            pool.release(_MID)
        pool.gather(_BUCKET)
        self._now = float(dyn["last_time"].max())
        if cutoff is not None:
            self._now = self._output_time = cutoff[0]

    def _merge_cutoff(self, non_output: int):
        """Merge the workers' tentative steps; locate the completing one.

        Merged in the canonical ``(time, original id)`` order, the pieces
        are the unsharded engine's sorted bucket, so the same
        :func:`completing_step` pins the same step on every shard count.
        """
        dyn = self._pool.dyn
        pieces = [
            slice(int(lo), int(lo) + int(count))
            for lo, count in zip(self._pool.partition.bounds, dyn["tp_count"])
        ]
        times, keys, deltas = (
            np.concatenate([dyn[name][piece] for piece in pieces])
            for name in ("tp_time", "tp_key", "tp_delta")
        )
        order = np.lexsort((keys, times))
        return completing_step(non_output, times[order], keys[order], deltas[order])

    def _events(self) -> int:
        return int(self._pool.dyn["events"].sum())

    def _totals(self) -> tuple[int, int, float]:
        dyn = self._pool.dyn
        return dyn["steps_taken"].sum(), dyn["messages"].sum(), float(dyn["max_parameter"].max())

    def _final_states(self) -> tuple:
        return self._collect_states()

    def _collect_states(self) -> tuple:
        """Retire the workers, gathering their decoded state slices.

        The workers exit on their own after reporting, so they are reaped
        here: :meth:`close` then finds none left to stop.
        """
        pool = self._pool
        pool.dyn["control"][0] = _COLLECT
        pool.release(_BUCKET)
        pieces: dict[int, list] = {}
        for _ in range(pool.num_shards):
            try:
                worker_id, states = self._queue.get(timeout=pool.barrier_timeout)
            except Empty:
                pool.check_health()
                pool.abort()
                raise ExecutionError("shard worker failed to report final states") from None
            pieces[worker_id] = states
        pool.join()
        permuted: list = []
        for s in range(pool.num_shards):
            permuted.extend(pieces[s])
        perm = np.asarray(pool.partition.perm, dtype=np.int64)
        return tuple(permuted[perm[i]] for i in range(self._graph.num_nodes))

    # ------------------------------------------------------------------ #
    # Teardown                                                            #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop workers and release shared-memory segments (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ShardedAsyncEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ShardedAsyncEngine"]
