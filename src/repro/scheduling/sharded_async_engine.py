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
step that zeroes the non-output counter, and broadcasts the cutoff;
workers then commit only the steps at or before it.  Ordinary buckets
(termination impossible — the running counter cannot reach zero) commit
in one phase with two barriers, exactly like the synchronous shards.

Determinism contract.  Sharded asynchronous execution is **bitwise
identical** to the unsharded engines — the vectorized engine and the
interpreter alike — for every shard count.  The multi-option picks are
pure hashes of ``(seed, original node id, step)``
(:func:`~repro.scheduling.picks.async_counter_pick`), the adversary draws
are pure counter functions, and every remaining bucket computation is
per-node arithmetic that slicing cannot change.  The parent resolves the
run's pick key once and hands it to every worker.
"""

from __future__ import annotations

import random
import threading
import traceback
from collections.abc import Mapping
from queue import Empty
from typing import Any

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

try:
    import multiprocessing
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    multiprocessing = None
    shared_memory = None

from collections import deque

from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
    ShardingUnavailableError,
)
from repro.core.protocol import Protocol
from repro.core.results import ExecutionResult, build_asynchronous_result
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_graph, permute_csr
from repro.scheduling.adversary import (
    AdversaryPolicy,
    SynchronousAdversary,
    derive_adversary_seed,
)
from repro.scheduling.async_engine import DEFAULT_MAX_EVENTS
from repro.scheduling.compiled import (
    DEFAULT_MAX_LAZY_STATES,
    LazyStrictTable,
    _require_numpy,
)
from repro.scheduling.sharded_engine import (
    DEFAULT_BARRIER_TIMEOUT,
    _attach_segment,
    _attach_views,
    _new_segment,
    _release_segment,
    sharding_supported,
)
from repro.scheduling.picks import async_counter_picks, async_pick_base, resolve_pick_seed

import os
import weakref

#: Control words written by the parent before releasing the start barrier.
_STOP = 0
_RUN = 1
_COLLECT = 2

#: Bucket modes (control word 1).
_NORMAL = 0
_TWO_PHASE = 1


# --------------------------------------------------------------------- #
# Worker-side engine slice                                               #
# --------------------------------------------------------------------- #
class _AsyncShardWorker:
    """One worker's slice of the bucketed engine state.

    All node indices are *local* (0..span), all edge slots are local to the
    worker's CSR row range; translation to original ids happens only at the
    adversary/pick draw coordinates (``orig``/``node_keys``) and at the tp
    publication (global permuted ids).  The arithmetic per bucket mirrors
    :class:`~repro.scheduling.vectorized_async_engine.
    VectorizedAsynchronousEngine`'s array path op for op — the determinism
    contract.
    """

    def __init__(
        self,
        worker_id,
        tables,
        dyn,
        lo,
        hi,
        pick_base,
        protocol,
        schedule,
        inputs,
        static_bound,
        max_states,
    ) -> None:
        self.id = worker_id
        self.lo, self.hi = lo, hi
        self.span = hi - lo
        indptr = tables["indptr"]
        self.edge_lo = int(indptr[lo])
        self.edge_hi = int(indptr[hi])
        self.lindptr = (indptr[lo : hi + 1] - self.edge_lo).astype(np.int64)
        self.lcol = tables["indices"][self.edge_lo : self.edge_hi]
        self.degrees = np.diff(self.lindptr)
        self.reverse = tables["reverse"]
        self.halo_index = tables["halo_index"][self.edge_lo : self.edge_hi]
        recv_bounds = tables["halo_recv_bounds"]
        self.recv_lo = int(recv_bounds[worker_id])
        self.recv_hi = int(recv_bounds[worker_id + 1])
        self.halo_recv_hid = tables["halo_recv_hid"]
        self.halo_recv_slot = tables["halo_recv_slot"]
        keys = tables["node_keys"]
        self.node_keys = keys[lo:hi]  # uint64, the pick-stream coordinates
        self.orig = keys[lo:hi].astype(np.int64)  # adversary coordinates
        self.orig_all = keys.astype(np.int64)

        self.schedule = schedule
        self.static_bound = static_bound
        self.pick_base = pick_base
        self.table = LazyStrictTable(protocol, max_states=max_states)
        # Cross-worker letter-id consistency: the table pre-interns the
        # declared alphabet in a fixed order, so alphabet letter ids agree
        # between workers.  Locally interned extras must never cross a
        # shard boundary (guarded in _emit).
        self.alphabet_size = self.table.alphabet_size
        self.b = protocol.bounding.value
        self.b1 = self.b + 1

        states = [
            protocol.initial_state(inputs.get(int(key))) for key in self.orig
        ]
        self.state = np.asarray(
            [self.table.state_id(state) for state in states], dtype=np.int64
        )
        _, output_mask, *_ = self.table.arrays()
        self.non_output = int(self.span - output_mask[self.state].sum())

        m = self.edge_hi - self.edge_lo
        self.port = np.full(m, self.table.initial_letter_id, dtype=np.int64)
        self.pending: list[deque] = [deque() for _ in range(m)]
        self.pend_head = np.full(m, np.inf)
        self.last_arrival = np.zeros(m)
        self.pending_delay = np.zeros(m)
        self.step = np.ones(self.span, dtype=np.int64)
        self.next_length = np.zeros(self.span)
        self.steps_taken = 0
        self.messages = 0
        self.events = 0
        self.max_parameter = 0.0
        self.bucket = 0
        self.last_bucket_time = -np.inf

        # Shared views (the parent reads; this worker writes only its slice
        # of next_time/margin, its stats slots, and its halo write slots).
        self.next_time = dyn["next_time"]
        self.margin = dyn["margin"]
        self.halo_arrival = dyn["halo_arrival"]
        self.halo_letter = dyn["halo_letter"]
        self.stats = dyn
        self.control_i = dyn["control_i"]
        self.control_f = dyn["control_f"]

        self._refresh(np.arange(self.span, dtype=np.int64))
        self._publish_stats()

    # -- helpers ------------------------------------------------------- #
    def _ragged(self, idx, lens):
        total = int(lens.sum())
        seg = np.repeat(np.arange(len(idx)), lens)
        ends = np.cumsum(lens)
        offsets = np.arange(total) - np.repeat(ends - lens, lens)
        edges = np.repeat(self.lindptr[idx], lens) + offsets
        return seg, edges

    def _refresh(self, idx) -> None:
        """Local mirror of ``_refresh_lookahead`` (original-id coordinates)."""
        if idx.size == 0:
            return
        steps = self.step[idx]
        next_lengths = self.schedule.step_lengths(self.orig[idx], steps + 1)
        self.next_length[idx] = next_lengths
        if self.static_bound is not None:
            self.margin[self.lo + idx] = np.minimum(
                next_lengths, self.static_bound
            )
            return
        lens = self.degrees[idx]
        min_delay = np.full(idx.size, np.inf)
        total = int(lens.sum())
        if total:
            seg, edges = self._ragged(idx, lens)
            delays = self.schedule.delivery_delays(
                np.repeat(self.orig[idx], lens),
                np.repeat(steps, lens),
                self.orig_all[self.lcol[edges]],
            )
            self.pending_delay[edges] = delays
            has_edges = lens > 0
            starts = (np.cumsum(lens) - lens)[has_edges]
            min_delay[has_edges] = np.minimum.reduceat(delays, starts)
        self.margin[self.lo + idx] = np.minimum(min_delay, next_lengths)

    def _apply_deliveries(self, seg, edges, batch_times) -> int:
        ready = np.flatnonzero(self.pend_head[edges] <= batch_times[seg])
        applied = 0
        for k in ready.tolist():
            edge = int(edges[k])
            step_time = batch_times[int(seg[k])]
            queue = self.pending[edge]
            letter = -1
            while queue and queue[0][0] <= step_time:
                letter = queue.popleft()[1]
                applied += 1
            self.port[edge] = letter
            self.pend_head[edge] = queue[0][0] if queue else np.inf
        return applied

    def _ingest_halo(self) -> None:
        """Fold the previous bucket's cross-shard deliveries into my FIFOs."""
        read_buf = (self.bucket + 1) % 2
        arrivals = self.halo_arrival[read_buf]
        letters = self.halo_letter[read_buf]
        for j in range(self.recv_lo, self.recv_hi):
            h = int(self.halo_recv_hid[j])
            arrival = float(arrivals[h])
            if arrival == np.inf:
                continue
            slot = int(self.halo_recv_slot[j]) - self.edge_lo
            self.pending[slot].append((arrival, int(letters[h])))
            if arrival < self.pend_head[slot]:
                self.pend_head[slot] = arrival
            arrivals[h] = np.inf

    def _emit(self, senders_idx, letters, times, steps) -> None:
        """Local mirror of the engine's ``_emit`` with halo routing."""
        self.messages += len(senders_idx)
        lens = self.degrees[senders_idx]
        if not int(lens.sum()):
            return
        seg, edges = self._ragged(senders_idx, lens)
        if self.static_bound is not None:
            delays = self.schedule.delivery_delays(
                np.repeat(self.orig[senders_idx], lens),
                np.repeat(steps, lens),
                self.orig_all[self.lcol[edges]],
            )
        else:
            delays = self.pending_delay[edges]
        self.max_parameter = max(self.max_parameter, float(delays.max()))
        arrivals = np.maximum(times[seg] + delays, self.last_arrival[edges])
        self.last_arrival[edges] = arrivals
        letters_rep = letters[seg]
        halo_idx = self.halo_index[edges]
        targets = self.reverse[edges + self.edge_lo]
        write_arrival = self.halo_arrival[self.bucket % 2]
        write_letter = self.halo_letter[self.bucket % 2]
        pending = self.pending
        pend_head = self.pend_head
        for k in range(len(edges)):
            arrival = float(arrivals[k])
            letter = int(letters_rep[k])
            h = int(halo_idx[k])
            if h >= 0:
                if letter >= self.alphabet_size:
                    raise ExecutionError(
                        "cross-shard emission of a letter outside the "
                        f"declared alphabet (id {letter} >= "
                        f"{self.alphabet_size}); letter ids are only "
                        "shard-consistent for declared alphabet letters"
                    )
                write_arrival[h] = arrival
                write_letter[h] = letter
            else:
                slot = int(targets[k]) - self.edge_lo
                pending[slot].append((arrival, letter))
                if arrival < pend_head[slot]:
                    pend_head[slot] = arrival

    def _publish_stats(self) -> None:
        stats = self.stats
        wid = self.id
        stats["non_output"][wid] = self.non_output
        stats["events"][wid] = self.events
        stats["steps"][wid] = self.steps_taken
        stats["messages"][wid] = self.messages
        stats["maxparam"][wid] = self.max_parameter
        stats["last_time"][wid] = self.last_bucket_time

    # -- bucket protocol ----------------------------------------------- #
    def _compute(self, horizon):
        """Phase 1: drains, census, transitions — nothing is committed yet
        except the (harmless, last-bucket-only-destructive) port drains."""
        self._ingest_halo()
        local_times = self.next_time[self.lo : self.hi]
        idx = np.flatnonzero(local_times < horizon)
        times = local_times[idx].copy()
        if idx.size > 1:
            order = np.argsort(times, kind="stable")
            idx = idx[order]
            times = times[order]
        counts = np.zeros(idx.size, dtype=np.int64)
        if idx.size:
            lens = self.degrees[idx]
            if int(lens.sum()):
                seg, edges = self._ragged(idx, lens)
                self.events += self._apply_deliveries(seg, edges, times)
                query, *_ = self.table.arrays()
                matches = self.port[edges] == query[self.state[idx]][seg]
                counts = np.bincount(
                    seg, weights=matches, minlength=idx.size
                ).astype(np.int64)
            counts = np.minimum(counts, self.b)
            state_batch = self.state[idx]
            self.table.ensure_cells(state_batch, counts)
            _, output_mask, cell_offset, cell_count, option_next, option_emit = (
                self.table.arrays()
            )
            cell = state_batch * self.b1 + counts
            n_options = cell_count[cell]
            picks = async_counter_picks(
                self.pick_base, self.node_keys[idx], self.step[idx], n_options
            )
            selected = cell_offset[cell] + picks
            new_states = option_next[selected]
            emits = option_emit[selected]
            old_output = output_mask[state_batch].astype(np.int64)
            new_output = output_mask[new_states].astype(np.int64)
        else:
            new_states = np.zeros(0, dtype=np.int64)
            emits = np.zeros(0, dtype=np.int64)
            old_output = np.zeros(0, dtype=np.int64)
            new_output = np.zeros(0, dtype=np.int64)
        return idx, times, new_states, emits, old_output, new_output

    def _publish_tp(self, idx, times, old_output, new_output) -> None:
        stats = self.stats
        count = idx.size
        stats["tp_count"][self.id] = count
        base = self.lo
        stats["tp_node"][base : base + count] = self.lo + idx
        stats["tp_time"][base : base + count] = times
        stats["tp_delta"][base : base + count] = old_output - new_output

    def _commit(self, computed, mask) -> None:
        idx, times, new_states, emits, old_output, new_output = computed
        if mask is not None:
            idx = idx[mask]
            times = times[mask]
            new_states = new_states[mask]
            emits = emits[mask]
            old_output = old_output[mask]
            new_output = new_output[mask]
        if idx.size == 0:
            self.last_bucket_time = -np.inf
            return
        self.non_output += int(old_output.sum()) - int(new_output.sum())
        self.state[idx] = new_states
        self.steps_taken += idx.size
        self.events += idx.size
        emitting = np.flatnonzero(emits >= 0)
        if emitting.size:
            senders = idx[emitting]
            self._emit(
                senders, emits[emitting], times[emitting], self.step[senders]
            )
        lengths = self.next_length[idx]
        self.max_parameter = max(self.max_parameter, float(lengths.max()))
        self.next_time[self.lo + idx] = times + lengths
        self.step[idx] += 1
        self._refresh(idx)
        self.last_bucket_time = float(times[-1])

    def bucket_step(self, mid_barrier, resume_barrier) -> None:
        horizon = float(self.control_f[0])
        mode = int(self.control_i[1])
        computed = self._compute(horizon)
        if mode == _TWO_PHASE:
            idx, times, _, _, old_output, new_output = computed
            self._publish_tp(idx, times, old_output, new_output)
            mid_barrier.wait()
            resume_barrier.wait()
            cutoff_time = float(self.control_f[1])
            if cutoff_time == np.inf:
                mask = None
            else:
                cutoff_key = int(self.control_i[2])
                mask = (times < cutoff_time) | (
                    (times == cutoff_time) & (self.orig[idx] <= cutoff_key)
                )
            self._commit(computed, mask)
        else:
            self._commit(computed, None)
        self.bucket += 1
        self._publish_stats()

    def decoded_states(self) -> list:
        decode = self.table.state_value
        return [decode(int(ident)) for ident in self.state]


def _worker_loop(
    worker_id,
    static,
    static_layout,
    dynamic,
    dynamic_layout,
    lo,
    hi,
    pick_base,
    protocol,
    schedule,
    inputs,
    static_bound,
    max_states,
    start_barrier,
    mid_barrier,
    resume_barrier,
    done_barrier,
    queue,
) -> None:
    """Init, then the bucket loop.  Own frame so shm views die on return."""
    tables = _attach_views(static, static_layout)
    dyn = _attach_views(dynamic, dynamic_layout)
    worker = _AsyncShardWorker(
        worker_id,
        tables,
        dyn,
        lo,
        hi,
        pick_base,
        protocol,
        schedule,
        inputs,
        static_bound,
        max_states,
    )
    done_barrier.wait()  # init round: states, margins and stats published
    while True:
        start_barrier.wait()
        command = int(worker.control_i[0])
        if command == _STOP:
            return
        if command == _COLLECT:
            queue.put((worker_id, worker.decoded_states()))
            return
        worker.bucket_step(mid_barrier, resume_barrier)
        done_barrier.wait()


def _shard_worker_main(
    worker_id,
    static_name,
    static_layout,
    dynamic_name,
    dynamic_layout,
    lo,
    hi,
    pick_base,
    protocol,
    schedule,
    inputs,
    static_bound,
    max_states,
    start_barrier,
    mid_barrier,
    resume_barrier,
    done_barrier,
    queue,
) -> None:
    """Worker entry point: attach, loop buckets, detach; crash loudly."""
    static = _attach_segment(static_name)
    dynamic = _attach_segment(dynamic_name)
    try:
        _worker_loop(
            worker_id,
            static,
            static_layout,
            dynamic,
            dynamic_layout,
            lo,
            hi,
            pick_base,
            protocol,
            schedule,
            inputs,
            static_bound,
            max_states,
            start_barrier,
            mid_barrier,
            resume_barrier,
            done_barrier,
            queue,
        )
    except threading.BrokenBarrierError:
        pass  # the parent aborted the run; exit quietly
    except BaseException:
        for barrier in (start_barrier, mid_barrier, resume_barrier, done_barrier):
            try:
                barrier.abort()
            except Exception:
                pass
        traceback.print_exc()
        os._exit(1)
    finally:
        _release_segment(static, unlink=False)
        _release_segment(dynamic, unlink=False)


# --------------------------------------------------------------------- #
# Parent-side engine                                                     #
# --------------------------------------------------------------------- #
class ShardedAsyncEngine:
    """Executes a strict protocol under adversarial timing across shards.

    Mirrors :class:`~repro.scheduling.vectorized_async_engine.
    VectorizedAsynchronousEngine`'s ``run()`` contract; a sharded engine is
    single-run (the final-state collection retires the workers).  Engines
    own kernel resources: call :meth:`close` (or use the engine as a
    context manager) to release workers and shared-memory segments.
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
        partition_strategy: str = "bfs",
        max_states: int = DEFAULT_MAX_LAZY_STATES,
        mp_context=None,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    ) -> None:
        _require_numpy()
        if shared_memory is None:  # pragma: no cover - POSIX-less platforms
            raise ShardingUnavailableError(
                "sharded execution requires multiprocessing.shared_memory"
            )
        if not isinstance(protocol, Protocol):
            raise ExecutionError(
                "the asynchronous engine executes strict protocols only; "
                "lower multi-letter protocols through repro.compilers first"
            )
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
        if graph.num_nodes == 0:
            raise ShardingUnavailableError("cannot shard an empty graph")
        adversary = adversary if adversary is not None else SynchronousAdversary()
        adversary_rng = random.Random(
            adversary_seed
            if adversary_seed is not None
            else derive_adversary_seed(seed)
        )
        schedule = adversary.start(graph, adversary_rng)
        if not schedule.batch_capable:
            raise ProtocolNotVectorizableError(
                f"adversary {adversary.name!r} does not support pure batch "
                "sampling; run it on the interpreted engine (backend='python')"
            )

        self._graph = graph
        self._protocol = protocol
        self._seed = seed
        self._adversary_name = adversary.name
        self._barrier_timeout = barrier_timeout
        self._closed = False
        self._started = False
        self._ran = False
        self._collected = False
        self._workers: list = []
        self._now = 0.0
        self._output_time: float | None = None

        n = graph.num_nodes
        num_shards = min(int(shards), n)
        self._partition = partition_graph(
            graph, num_shards, strategy=partition_strategy
        )
        indptr, indices = graph.csr_adjacency()
        perm_indptr, perm_indices = permute_csr(
            indptr, indices, self._partition.perm, self._partition.inv
        )
        m = len(perm_indices)
        perm_row = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(perm_indptr)
        )
        # reverse[e]: slot of the opposite direction of edge e.  The
        # permuted CSR keeps the *original* intra-row neighbour order, so
        # rows are not column-sorted and the unsharded engine's single
        # lexsort shortcut does not apply; pair the (row, col)-sorted edge
        # sequence with the (col, row)-sorted one instead (they coincide
        # with directions swapped — both directions of every edge exist).
        forward = np.lexsort((perm_indices, perm_row))
        backward = np.lexsort((perm_row, perm_indices))
        reverse = np.empty(m, dtype=np.int64)
        reverse[forward] = backward

        bounds = np.asarray(self._partition.bounds, dtype=np.int64)
        shard_of = (
            np.searchsorted(bounds, np.arange(n, dtype=np.int64), side="right")
            - 1
        )
        cut_eids = np.flatnonzero(shard_of[perm_row] != shard_of[perm_indices])
        halo_size = int(cut_eids.size)
        halo_index = np.full(m, -1, dtype=np.int64)
        halo_index[cut_eids] = np.arange(halo_size, dtype=np.int64)
        recv_shard = shard_of[perm_indices[cut_eids]]
        recv_order = np.argsort(recv_shard, kind="stable").astype(np.int64)
        halo_recv_slot = reverse[cut_eids[recv_order]]
        halo_recv_bounds = np.searchsorted(
            recv_shard[recv_order], np.arange(num_shards + 1)
        ).astype(np.int64)

        # Initial step times and the bucket-margin mode are global decisions
        # and pure counter draws; the parent makes them once, identically to
        # the unsharded engine's constructor (min/median are exact over any
        # ordering of the same multiset).
        inv = np.asarray(self._partition.inv, dtype=np.int64)
        lengths = schedule.step_lengths(inv, np.ones(n, dtype=np.int64))
        self._init_max_parameter = float(lengths.max())
        bound = schedule.delay_lower_bound()
        static_bound = None
        if bound is not None and 8.0 * bound >= float(np.median(lengths)):
            static_bound = float(bound)

        static_arrays = {
            "indptr": np.asarray(perm_indptr, dtype=np.int64),
            "indices": np.asarray(perm_indices, dtype=np.int64),
            "reverse": reverse,
            "node_keys": inv.astype(np.uint64),
            "halo_index": halo_index,
            "halo_recv_hid": recv_order,
            "halo_recv_slot": halo_recv_slot,
            "halo_recv_bounds": halo_recv_bounds,
        }
        dynamic_arrays = {
            # next_time/margin live in permuted order: shard slices are
            # contiguous; the parent only ever reduces over them.
            "next_time": lengths.astype(np.float64),
            "margin": np.zeros(n),
            "halo_arrival": np.full((2, halo_size), np.inf),
            "halo_letter": np.zeros((2, halo_size), dtype=np.int64),
            "non_output": np.zeros(num_shards, dtype=np.int64),
            "events": np.zeros(num_shards, dtype=np.int64),
            "steps": np.zeros(num_shards, dtype=np.int64),
            "messages": np.zeros(num_shards, dtype=np.int64),
            "maxparam": np.zeros(num_shards),
            "last_time": np.full(num_shards, -np.inf),
            "tp_count": np.zeros(num_shards, dtype=np.int64),
            "tp_node": np.zeros(n, dtype=np.int64),
            "tp_time": np.zeros(n),
            "tp_delta": np.zeros(n, dtype=np.int64),
            "control_i": np.zeros(8, dtype=np.int64),
            "control_f": np.zeros(4),
        }
        self._static_shm, self._static_layout, _ = _new_segment(static_arrays)
        self._dynamic_shm, self._dynamic_layout, self._dyn = _new_segment(
            dynamic_arrays
        )
        self._finalizer = weakref.finalize(
            self, _finalize_async_segments, self._static_shm, self._dynamic_shm
        )

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = mp_context
        self._start_barrier = self._ctx.Barrier(num_shards + 1)
        self._mid_barrier = self._ctx.Barrier(num_shards + 1)
        self._resume_barrier = self._ctx.Barrier(num_shards + 1)
        self._done_barrier = self._ctx.Barrier(num_shards + 1)
        self._queue = self._ctx.Queue()

        inputs_map = dict(inputs or {})
        pick_base = async_pick_base(resolve_pick_seed(seed))
        self._worker_args = [
            (
                s,
                self._static_shm.name,
                self._static_layout,
                self._dynamic_shm.name,
                self._dynamic_layout,
                int(bounds[s]),
                int(bounds[s + 1]),
                pick_base,
                protocol,
                schedule,
                inputs_map,
                static_bound,
                int(max_states),
                self._start_barrier,
                self._mid_barrier,
                self._resume_barrier,
                self._done_barrier,
                self._queue,
            )
            for s in range(num_shards)
        ]

        self.shard_info: dict[str, Any] = {
            "shard_count": num_shards,
            "cut_edges": self._partition.cut_edges,
            # One (arrival f64, letter i64) halo slot per directed cut edge
            # per bucket, double-buffered across bucket parity.
            "halo_bytes_per_bucket": halo_size * 16,
            "partition_strategy": self._partition.strategy,
        }

    # ------------------------------------------------------------------ #
    # Worker lifecycle                                                    #
    # ------------------------------------------------------------------ #
    def _ensure_workers(self) -> None:
        if self._started:
            return
        if self._closed:
            raise ExecutionError("engine is closed")
        self._workers = [
            self._ctx.Process(
                target=_shard_worker_main,
                args=args,
                name=f"repro-async-shard-{args[0]}",
                daemon=True,
            )
            for args in self._worker_args
        ]
        for worker in self._workers:
            worker.start()
        self._started = True

    def _check_worker_health(self) -> None:
        dead = [w for w in self._workers if w.exitcode is not None]
        if dead:
            codes = {w.name: w.exitcode for w in dead}
            self._abort()
            raise ExecutionError(f"shard worker(s) died mid-run: {codes}")

    def _abort(self) -> None:
        # Terminate rather than abort the barriers: a worker killed inside a
        # barrier wait dies holding the barrier's lock, so ``abort()`` would
        # block this process forever.
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._release_segments()
        self._closed = True

    def _release_segments(self) -> None:
        self._dyn = None
        self._finalizer.detach()
        _release_segment(self._static_shm, unlink=True)
        _release_segment(self._dynamic_shm, unlink=True)

    def _wait(self, barrier) -> None:
        try:
            barrier.wait(timeout=self._barrier_timeout)
        except threading.BrokenBarrierError:
            self._check_worker_health()  # raises with exit codes if it can
            self._abort()
            raise ExecutionError(
                "sharded bucket barrier broke (worker wedged or killed)"
            ) from None

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
        if self._closed:
            raise ExecutionError("engine is closed")
        if self._ran:
            raise ExecutionError(
                "a ShardedAsyncEngine is single-run; build a fresh engine"
            )
        self._ran = True
        self._ensure_workers()
        self._wait(self._done_barrier)  # init round

        dyn = self._dyn
        next_time = dyn["next_time"]
        margin = dyn["margin"]
        control_i = dyn["control_i"]
        control_f = dyn["control_f"]
        inv = np.asarray(self._partition.inv, dtype=np.int64)
        while self._graph.num_nodes and self._output_time is None:
            if int(dyn["events"].sum()) >= max_events:
                break
            horizon = float((next_time + margin).min())
            batch_size = int((next_time < horizon).sum())
            non_output = int(dyn["non_output"].sum())
            two_phase = non_output <= batch_size
            control_i[0] = _RUN
            control_i[1] = _TWO_PHASE if two_phase else _NORMAL
            control_f[0] = horizon
            self._wait(self._start_barrier)
            cutoff_time = np.inf
            if two_phase:
                self._wait(self._mid_barrier)
                cutoff_time, cutoff_key = self._merge_cutoff(non_output, inv)
                control_f[1] = cutoff_time
                control_i[2] = cutoff_key
                self._wait(self._resume_barrier)
            self._wait(self._done_barrier)
            self._now = float(dyn["last_time"].max())
            if cutoff_time != np.inf:
                self._now = float(cutoff_time)
                self._output_time = self._now

        reached = self._output_time is not None
        states = self._collect_states()
        result = build_asynchronous_result(
            self._protocol,
            self._graph,
            states,
            reached=reached,
            elapsed=self._output_time if reached else self._now,
            max_parameter=max(
                self._init_max_parameter, float(dyn["maxparam"].max())
            ),
            total_node_steps=int(dyn["steps"].sum()),
            total_messages=int(dyn["messages"].sum()),
            seed=self._seed,
            adversary_name=self._adversary_name,
            backend="vectorized",
        )
        if not reached and raise_on_timeout:
            raise OutputNotReachedError(
                f"no output configuration within {max_events} events", result
            )
        return result

    def _merge_cutoff(self, non_output: int, inv) -> tuple[float, int]:
        """Merge the workers' tentative steps; locate the completing one.

        The global canonical order is ``(step time, original node id)`` —
        exactly the unsharded engine's sorted bucket — so the prefix sum of
        output deltas pins the same completing step on every shard count.
        """
        dyn = self._dyn
        counts = dyn["tp_count"]
        bounds = np.asarray(self._partition.bounds, dtype=np.int64)
        pieces_node = []
        pieces_time = []
        pieces_delta = []
        for s in range(len(counts)):
            lo = int(bounds[s])
            count = int(counts[s])
            pieces_node.append(dyn["tp_node"][lo : lo + count])
            pieces_time.append(dyn["tp_time"][lo : lo + count])
            pieces_delta.append(dyn["tp_delta"][lo : lo + count])
        nodes = np.concatenate(pieces_node)
        times = np.concatenate(pieces_time)
        deltas = np.concatenate(pieces_delta)
        orig = inv[nodes]
        order = np.lexsort((orig, times))
        running = non_output + np.cumsum(deltas[order])
        completing = np.flatnonzero(running == 0)
        if completing.size == 0:
            return np.inf, -1
        winner = int(order[int(completing[0])])
        return float(times[winner]), int(orig[winner])

    def _collect_states(self) -> tuple:
        """Retire the workers, gathering their decoded state slices."""
        dyn = self._dyn
        dyn["control_i"][0] = _COLLECT
        self._wait(self._start_barrier)
        pieces: dict[int, list] = {}
        for _ in range(len(self._workers)):
            try:
                worker_id, states = self._queue.get(
                    timeout=self._barrier_timeout
                )
            except Empty:
                self._check_worker_health()
                self._abort()
                raise ExecutionError(
                    "shard worker failed to report final states"
                ) from None
            pieces[worker_id] = states
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._collected = True
        permuted: list = []
        for s in range(len(self._workers)):
            permuted.extend(pieces[s])
        perm = np.asarray(self._partition.perm, dtype=np.int64)
        return tuple(permuted[perm[i]] for i in range(self._graph.num_nodes))

    # ------------------------------------------------------------------ #
    # Teardown                                                            #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop workers and release shared-memory segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._started and not self._collected:
                if all(w.exitcode is None for w in self._workers):
                    self._dyn["control_i"][0] = _STOP
                    try:
                        self._start_barrier.wait(
                            timeout=min(5.0, self._barrier_timeout)
                        )
                    except threading.BrokenBarrierError:
                        pass
                for worker in self._workers:
                    worker.join(timeout=5.0)
                for worker in self._workers:
                    if worker.is_alive():
                        worker.terminate()
                        worker.join(timeout=5.0)
        finally:
            self._release_segments()

    def __enter__(self) -> "ShardedAsyncEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def _finalize_async_segments(static_shm, dynamic_shm) -> None:
    """GC safety net: reclaim segments if the engine was never closed."""
    _release_segment(static_shm, unlink=True)
    _release_segment(dynamic_shm, unlink=True)


__all__ = ["ShardedAsyncEngine", "sharding_supported"]
