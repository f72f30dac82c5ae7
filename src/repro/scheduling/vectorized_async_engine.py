"""Time-bucketed vectorized execution of strict protocols under adversarial timing.

The interpreted engine of :mod:`repro.scheduling.async_engine` pops one heap
event at a time and walks the object-level protocol API for every node step —
faithful, but it caps the adversarial experiments (E3/A2) and the Theorem 3.1
synchronizer validation at small networks.  This engine processes the same
event stream in *batches* and replaces the per-event protocol interpretation
with dense table lookups, while reproducing the interpreted engine's
canonical event order exactly:

1. **Safe bucket selection** — every node always has exactly one pending
   step.  Pending steps are sorted by ``(time, node)`` and the batch is the
   longest prefix ``v_1, v_2, …`` such that nothing *any* earlier batch
   member does can influence a later member: for ``i < j``,
   ``t_{v_j} < t_{v_i} + min(min_u D_{v_i,t,u}, L_{v_i,t+1})``.  The first
   bound guarantees no delivery emitted inside the bucket arrives inside the
   bucket (delays are strictly positive and FIFO clamping only pushes
   arrivals later); the second guarantees no batched node's *next* step fires
   inside the bucket.  Because the shipped adversary schedules are pure
   functions of the draw coordinates (:class:`~repro.scheduling.adversary.
   CounterBasedSchedule`), both bounds are computed ahead of time without
   perturbing the adversary's randomness.
2. **Lazy delivery application** — deliveries never trigger computation, so
   they are buffered per directed edge (FIFO, arrivals non-decreasing) and
   folded into the receiver's port only when that receiver actually steps:
   all arrivals up to the step time are drained and the last one wins, which
   is precisely the no-buffering port-overwrite semantics of Section 2.
3. **Table-driven transitions** — saturated port counts for the whole bucket
   come from one ragged gather + segment sum; transitions are looked up in a
   :class:`~repro.scheduling.compiled.LazyStrictTable` (states interned on
   first visit, cells evaluated on first use), so synchronizer-compiled
   protocols whose reachable closure is far too large to tabulate eagerly
   still run vectorized.
4. **Counter randomness** — nodes with multi-option transitions draw from
   the asynchronous pick stream of :mod:`repro.scheduling.picks`, a pure
   hash of ``(seed, original node id, step index)`` that the interpreted
   engine draws one step at a time.  Together with the pure adversary
   schedules this makes terminating runs **identical** between the two
   backends — same outputs, same final states, same step/message counts,
   same normalised run-time.

The bucket work — ragged gather, lookahead refresh, delivery drain, census
and transition, commit and emit — is one class, :class:`BucketSlice`, over
the run's nodes.  Only tiny buckets take a second, scalar path
(:meth:`VectorizedAsynchronousEngine._run_scalar_bucket`) over the same
state: it implements the same semantics step by step, and on small or
near-continuous workloads it is what keeps the engine fast.  An
asynchronous run is one process: a ``shards >= 2`` request runs this engine
unsharded and records why (see :func:`repro.scheduling.async_engine.
_run_asynchronous`).

On networks of at most :data:`DRAW_BLOCK_MAX_NODES` nodes a small
lookahead refresh (a tiny bucket's nodes, refreshed together once the
bucket is done, or any refresh of at most :data:`SCALAR_REFRESH_CUTOFF`
nodes) reads per-node *draw blocks* instead of hashing one coordinate per
call.  A node's block is one batch draw of its next :data:`DRAW_BLOCK`
step lengths and, with sampled margins, of those steps' margins (each
step's smallest delivery delay, capped by the next length), drawn on its
first small refresh and again whenever its step leaves the block.  On
larger networks most node refreshes are large, so a block would go mostly
unread, and every refresh is one array lookahead.  A step that emits draws
its delivery delays then, whichever way it was refreshed.  Blocks are
``array('d')``, 8 B a value: one run holds at most one block of lengths
per node plus one of margins per node with a neighbour, so at most
``(n + m) × DRAW_BLOCK`` values for ``m`` directed edges, and one block
draw covers at most ``DRAW_BLOCK × DRAW_BLOCK_MAX_NODES`` coordinates (per
step, a length plus one delay per neighbour).  Draws are pure, so reading
a value early changes nothing, and ``max_parameter`` counts only the
lengths and delays a run consumes.

The ``max_events`` budget is honoured at bucket granularity: a run may
process up to one bucket past the budget before stopping, so partial
(timed-out) executions are not guaranteed to match the interpreted engine
event for event — terminating runs are.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from collections.abc import Mapping
from operator import add
from typing import Any

import numpy as np

from repro.core.budgets import DEFAULT_MAX_EVENTS
from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.protocol import Protocol, State
from repro.core.results import ExecutionResult, build_asynchronous_result
from repro.graphs.graph import Graph
from repro.scheduling.adversary import (
    AdversaryPolicy,
    SynchronousAdversary,
    derive_adversary_seed,
)
from repro.scheduling.compiled import LazyStrictTable
from repro.scheduling.picks import (
    async_counter_pick,
    async_counter_picks,
    async_pick_base,
    resolve_pick_seed,
)

#: Buckets at or below this many steps run through the scalar table path —
#: the fixed cost of an array operation needs roughly this many elements to
#: amortise.  Both paths implement the same canonical semantics.
SCALAR_BUCKET_CUTOFF = 12

#: Refreshes of at most this many nodes are small: they read the per-node
#: draw blocks (:meth:`BucketSlice.refresh_scalar`) where there are blocks.
SCALAR_REFRESH_CUTOFF = 32

#: Pending steps per draw block of the scalar lookahead.
DRAW_BLOCK = 64

#: Networks of at most this many nodes read draw blocks.  The larger the
#: network, the larger its buckets and the fewer of its node refreshes are
#: small (MIS on ``random_tree`` under ``exponential``: 62% at n=1025, 43%
#: at n=1537); past this size a block would go mostly unread, so every
#: refresh is one array lookahead instead.
DRAW_BLOCK_MAX_NODES = 1536


class BucketSlice:
    """The bucketed engine state of every node of one run.

    ``keys`` hold each node's id — the coordinate of its adversary draws
    and picks — and ``peer`` that of each out-edge's receiver; ``target``
    maps a sender-major out-edge to the receiver-major port slot it writes
    (the slot of the opposite direction).  ``next_time`` and ``margin`` are
    the engine's arrays the bucket horizon is taken over.

    A bucket is :meth:`select`, :meth:`compute` (delivery drain, census,
    transition — nothing committed) and :meth:`commit` (states, emissions,
    the next step's schedule and lookahead), optionally cut off at the step
    that completes the run.
    """

    def __init__(
        self,
        graph,
        next_time,
        margin,
        table,
        protocol,
        inputs,
        schedule,
        static_bound,
        pick_base,
    ) -> None:
        self.indptr, self.peer = graph.csr_adjacency()
        self.degrees = np.diff(self.indptr)
        n = len(self.degrees)
        # The (row, col)-sorted edge sequence paired with the (col,
        # row)-sorted one: they coincide with directions swapped, because
        # both directions of every edge exist.
        row = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        self.target = np.empty(len(self.peer), dtype=np.int64)
        self.target[np.lexsort((self.peer, row))] = np.lexsort((row, self.peer))
        self.keys = np.arange(n, dtype=np.int64)  # adversary coordinates
        self.node_keys = self.keys.astype(np.uint64)  # the pick coordinates
        # List twins of the CSR for the scalar path: list reads are several
        # times cheaper than NumPy scalar indexing.
        self.indptr_list = self.indptr.tolist()
        self.peer_list = self.peer.tolist()
        self.target_list = self.target.tolist()
        self.next_time = next_time
        self.margin = margin

        self.table = table
        self.schedule = schedule
        self.static_bound = static_bound
        self.pick_base = pick_base
        self.b = protocol.bounding.value
        states = [protocol.initial_state(inputs.get(key)) for key in range(n)]
        self.state = np.asarray([table.state_id(state) for state in states], dtype=np.int64)
        _, output_mask, *_ = table.arrays()
        self.non_output = int(len(self.state) - output_mask[self.state].sum())

        m = len(self.peer)
        self.port = np.full(m, table.initial_letter_id, dtype=np.int64)
        # Pending deliveries per receiver-major edge: FIFO of (arrival, letter)
        # with non-decreasing arrivals; pend_head caches the earliest arrival
        # (inf when empty) so empty queues cost one array compare, not a loop.
        self.pending: list[deque] = [deque() for _ in range(m)]
        self.pend_head = np.full(m, np.inf)
        # Sender-major per-edge bookkeeping.
        self.last_arrival = np.zeros(m)

        self.step = np.ones(n, dtype=np.int64)
        self.next_length = np.zeros(n)
        # Per-node draw blocks of the scalar lookahead (see refresh_scalar),
        # read on networks of at most DRAW_BLOCK_MAX_NODES nodes: the first
        # pending step a block covers, its next lengths and, with sampled
        # margins, its margins.  No node starts with a block.
        self.blocks = n <= DRAW_BLOCK_MAX_NODES
        self.block_start = [-DRAW_BLOCK] * n
        self.block_lengths: list = [None] * n
        self.block_margins: list = [None] * n
        self.steps_taken = 0
        self.messages = 0
        self.events = 0
        self.max_parameter = 0.0
        self.last_time = -np.inf
        self.refresh(np.arange(n, dtype=np.int64))

    def ragged(self, idx, lens):
        """Segment ids and edge slots of the CSR rows of *idx*, concatenated."""
        total = int(lens.sum())
        seg = np.repeat(np.arange(len(idx)), lens)
        ends = np.cumsum(lens)
        offsets = np.arange(total) - np.repeat(ends - lens, lens)
        edges = np.repeat(self.indptr[idx], lens) + offsets
        return seg, edges

    def lookahead(self, idx, steps):
        """``(next_lengths, margins)`` of nodes *idx* pending at *steps*.

        Samples purely, without accounting: each pending step's following
        step length, and a margin such that the pending step's time plus
        the margin lower-bounds the earliest instant any *future* action of
        the node can influence another node.  With sampled margins that is
        the smaller of the next length and the pending step's smallest
        delivery delay.  A step that emits draws its delays again
        (:meth:`emit`).
        """
        next_lengths = self.schedule.step_lengths(self.keys[idx], steps + 1)
        if self.static_bound is not None:
            return next_lengths, np.minimum(next_lengths, self.static_bound)
        lens = self.degrees[idx]
        min_delay = np.full(idx.size, np.inf)
        if int(lens.sum()):
            _, edges = self.ragged(idx, lens)
            delays = self.schedule.delivery_delays(
                np.repeat(self.keys[idx], lens), np.repeat(steps, lens), self.peer[edges]
            )
            has_edges = lens > 0
            starts = (np.cumsum(lens) - lens)[has_edges]
            min_delay[has_edges] = np.minimum.reduceat(delays, starts)
        return next_lengths, np.minimum(min_delay, next_lengths)

    def refresh(self, idx) -> None:
        """Recompute the batching lookahead after *idx* scheduled new steps:
        from the draw blocks for a small refresh on a network with blocks,
        else by one array :meth:`lookahead`."""
        if idx.size == 0:
            return
        steps = self.step[idx]
        if self.blocks and idx.size <= SCALAR_REFRESH_CUTOFF:
            self.refresh_scalar(idx.tolist(), steps.tolist())
            return
        self.next_length[idx], self.margin[idx] = self.lookahead(idx, steps)

    def refresh_scalar(self, nodes: list, steps: list) -> None:
        """:meth:`refresh` of a few *nodes*, pending at *steps*, from blocks.

        Each node reads its draw block: one :meth:`lookahead` over its
        pending steps ``start .. start + DRAW_BLOCK - 1``, drawn when its
        step leaves the block (or it has none yet), so a refresh costs a
        list read instead of a hash chain per coordinate.
        """
        bound = self.static_bound
        for i, step in zip(nodes, steps):
            k = step - self.block_start[i]
            if not 0 <= k < DRAW_BLOCK:
                self.draw_block(i, step)
                k = 0
            length = self.block_lengths[i][k]
            self.next_length[i] = length
            if bound is None:
                self.margin[i] = self.block_margins[i][k]
            else:
                self.margin[i] = length if length < bound else bound

    def draw_block(self, i: int, step: int) -> None:
        """Draw node *i*'s block for pending steps from *step* on."""
        lengths, margins = self.lookahead(
            np.full(DRAW_BLOCK, i, dtype=np.int64),
            np.arange(step, step + DRAW_BLOCK, dtype=np.int64),
        )
        block = array("d", lengths.tolist())
        self.block_start[i] = step
        self.block_lengths[i] = block
        if self.static_bound is None:
            # An isolated node's margins are its lengths: one copy holds both.
            self.block_margins[i] = array("d", margins.tolist()) if self.degrees[i] else block

    def select(self, horizon):
        """The pending steps before *horizon*, sorted by (time, node)."""
        idx = np.flatnonzero(self.next_time < horizon)
        times = self.next_time[idx]
        if idx.size > 1:
            order = np.argsort(times, kind="stable")
            idx, times = idx[order], times[order]
        return idx, times

    def drain(self, seg, edges, times) -> int:
        """Drain pending arrivals up to each bucket step's time (last one wins)."""
        ready = np.flatnonzero(self.pend_head[edges] <= times[seg])
        applied = 0
        for k in ready.tolist():
            edge = int(edges[k])
            step_time = times[int(seg[k])]
            queue = self.pending[edge]
            letter = -1
            while queue and queue[0][0] <= step_time:
                letter = queue.popleft()[1]
                applied += 1
            self.port[edge] = letter
            self.pend_head[edge] = queue[0][0] if queue else np.inf
        return applied

    def compute(self, idx, times):
        """Drain, count and transition the bucket steps *idx* at *times*.

        Ports first: arrivals up to each step's instant are drained, then
        the queried letter is counted over each node's in-edges.  Every
        multi-option pick is drawn and the whole bucket transitioned with
        array lookups, but nothing is committed: the draws are stateless, so
        a suffix the caller cuts off consumed nothing.  Returns ``(idx,
        times, new_states, emits, deltas)``, ``deltas`` being each step's
        change of the non-output count.
        """
        counts = np.zeros(idx.size, dtype=np.int64)
        lens = self.degrees[idx]
        if int(lens.sum()):
            seg, edges = self.ragged(idx, lens)
            self.events += self.drain(seg, edges, times)
            query, *_ = self.table.arrays()
            matches = self.port[edges] == query[self.state[idx]][seg]
            counts = np.bincount(seg, weights=matches, minlength=idx.size).astype(np.int64)
        counts = np.minimum(counts, self.b)
        states = self.state[idx]
        self.table.ensure_cells(states, counts)
        _, output_mask, cell_offset, cell_count, option_next, option_emit = self.table.arrays()
        cell = states * (self.b + 1) + counts
        picks = async_counter_picks(
            self.pick_base, self.node_keys[idx], self.step[idx], cell_count[cell]
        )
        selected = cell_offset[cell] + picks
        new_states = option_next[selected]
        deltas = output_mask[states].astype(np.int64) - output_mask[new_states]
        return idx, times, new_states, option_emit[selected], deltas

    def commit(self, bucket, cutoff=None) -> None:
        """Apply a computed *bucket* — through the step ``cutoff = (time,
        key)`` only, when given — and schedule each node's next step."""
        idx, times, new_states, emits, deltas = bucket
        if cutoff is not None:
            cutoff_time, cutoff_key = cutoff
            keep = (times < cutoff_time) | ((times == cutoff_time) & (self.keys[idx] <= cutoff_key))
            idx, times, new_states, emits, deltas = (column[keep] for column in bucket)
        if idx.size == 0:
            self.last_time = -np.inf
            return
        self.non_output += int(deltas.sum())
        self.state[idx] = new_states
        self.steps_taken += idx.size
        self.events += idx.size
        emitting = np.flatnonzero(emits >= 0)
        if emitting.size:
            senders = idx[emitting]
            self.emit(senders, emits[emitting], times[emitting], self.step[senders])
        # The pending lookahead length becomes the accounted step length.
        lengths = self.next_length[idx]
        self.max_parameter = max(self.max_parameter, float(lengths.max()))
        self.next_time[idx] = times + lengths
        self.step[idx] += 1
        self.refresh(idx)
        self.last_time = float(times[-1])

    def emit(self, senders, letters, times, steps) -> None:
        """Schedule deliveries for the emitting *senders* (FIFO-clamped)."""
        self.messages += len(senders)
        lens = self.degrees[senders]
        if not int(lens.sum()):
            return
        seg, edges = self.ragged(senders, lens)
        delays = self.schedule.delivery_delays(
            np.repeat(self.keys[senders], lens), np.repeat(steps, lens), self.peer[edges]
        )
        self.max_parameter = max(self.max_parameter, float(delays.max()))
        arrivals = np.maximum(times[seg] + delays, self.last_arrival[edges])
        self.last_arrival[edges] = arrivals
        letters = letters[seg]
        targets = self.target[edges]
        pending = self.pending
        pend_head = self.pend_head
        for target, arrival, letter in zip(targets.tolist(), arrivals.tolist(), letters.tolist()):
            pending[target].append((arrival, letter))
            if arrival < pend_head[target]:
                pend_head[target] = arrival

    def decoded_states(self) -> list:
        return list(map(self.table.states.__getitem__, self.state.tolist()))


class VectorizedAsynchronousEngine:
    """Executes a strict protocol under adversarial timing in event batches.

    The constructor signature mirrors :class:`~repro.scheduling.async_engine.
    AsynchronousEngine` minus the per-transition observer (incompatible with
    batching).  ``table`` optionally supplies a pre-warmed
    :class:`~repro.scheduling.compiled.LazyStrictTable` shared across runs of
    the same protocol; the caller must guarantee it was built from an
    equivalent protocol.

    Raises :class:`ProtocolNotVectorizableError` when the adversary's
    schedule does not support pure batch sampling
    (:attr:`~repro.scheduling.adversary.AdversarySchedule.batch_capable`).
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
        table: LazyStrictTable | None = None,
    ) -> None:
        if not isinstance(protocol, Protocol):
            raise ExecutionError(
                "the asynchronous engine executes strict protocols only; "
                "lower multi-letter protocols through repro.compilers first"
            )
        adversary = adversary if adversary is not None else SynchronousAdversary()
        adversary_rng = random.Random(
            adversary_seed if adversary_seed is not None else derive_adversary_seed(seed)
        )
        schedule = adversary.start(graph, adversary_rng)
        if not schedule.batch_capable:
            raise ProtocolNotVectorizableError(
                f"adversary {adversary.name!r} does not support pure batch "
                "sampling; run it on the interpreted engine (backend='python')"
            )
        self._graph = graph
        self._protocol = protocol
        self._schedule = schedule
        self._adversary_name = adversary.name
        self._seed = seed
        self._pick_base = async_pick_base(resolve_pick_seed(seed))
        self._now = 0.0
        self._output_time: float | None = None

        # The initial step times are pure counter draws over the node ids.
        n = graph.num_nodes
        lengths = np.zeros(0)
        if n:
            lengths = schedule.step_lengths(
                np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64)
            ).astype(np.float64)
        self._max_parameter = float(lengths.max()) if n else 0.0
        # Margin mode: with a useful static delay lower bound the engine
        # never samples delays for steps that end up transmitting nothing
        # (matching the interpreted engine's sampling volume); without one
        # (near-continuous policies like the exponential adversary, whose
        # static floor is uselessly small) it samples the pending step's
        # delays up front — costlier, but the larger data-driven margins
        # keep the buckets from collapsing to single steps.
        bound = schedule.delay_lower_bound()
        self._static_bound: float | None = None
        if bound is not None and n and 8.0 * bound >= float(np.median(lengths)):
            self._static_bound = float(bound)
        self._table = table if table is not None else LazyStrictTable(protocol)
        self._next_time = lengths
        self._margin = np.zeros(n)
        self._slice = BucketSlice(
            graph,
            self._next_time,
            self._margin,
            self._table,
            protocol,
            dict(inputs or {}),
            schedule,
            self._static_bound,
            self._pick_base,
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> tuple[State, ...]:
        return tuple(self._slice.decoded_states())

    @property
    def now(self) -> float:
        """Current adversary-clock time."""
        return self._now

    @property
    def table(self) -> LazyStrictTable:
        return self._table

    def in_output_configuration(self) -> bool:
        return self._slice.non_output == 0

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def _select_batch(self):
        """A safe time-prefix of pending steps, sorted by (time, node).

        Every pending step strictly before the *global* minimum horizon
        ``min_v (t_v + margin_v)`` is safe to process together: no batched
        step's emission can arrive at, and no batched step's successor can
        fire at, an instant another batch member still has to observe.  The
        node attaining the minimum step time always qualifies (margins are
        strictly positive), so progress is guaranteed; selection is O(n)
        plus a sort of the batch itself.  A tiny bucket, and every bucket
        of a network of at most 64 nodes, comes as Python lists.
        """
        times = self._next_time
        if len(times) <= 64:
            time_list = times.tolist()
            horizon_min = min(map(add, time_list, self._margin.tolist()))
            batch = [v for v, t in enumerate(time_list) if t < horizon_min]
            if len(batch) > 1:
                batch.sort(key=time_list.__getitem__)  # stable: ties stay by node
            return batch, [time_list[v] for v in batch]
        batch, batch_times = self._slice.select((times + self._margin).min())
        if batch.size <= SCALAR_BUCKET_CUTOFF:
            return batch.tolist(), batch_times.tolist()
        return batch, batch_times

    def _bucket(self) -> None:
        """Process one bucket; stop the clock at the completing step."""
        part = self._slice
        batch, batch_times = self._select_batch()
        if len(batch) <= SCALAR_BUCKET_CUTOFF:
            self._run_scalar_bucket(batch, batch_times)
            return
        batch, batch_times = np.asarray(batch, dtype=np.int64), np.asarray(batch_times)
        bucket = part.compute(batch, batch_times)
        # Termination is possible only when the non-output count fits inside
        # the bucket; in that rare case (at most once per run) the prefix
        # scan locates the exact step completing the configuration.
        cutoff = None
        if part.non_output <= len(batch):
            completing = np.flatnonzero(part.non_output + np.cumsum(bucket[-1]) == 0)
            if completing.size:
                first = int(completing[0])
                cutoff = float(batch_times[first]), int(part.keys[batch[first]])
        part.commit(bucket, cutoff)
        self._now = part.last_time
        if cutoff is not None:
            self._output_time = self._now

    def _run_scalar_bucket(self, batch: list, batch_times: list) -> None:
        """Process a small bucket step-by-step through the scalar table API.

        Below :data:`SCALAR_BUCKET_CUTOFF` steps the fixed per-array-op cost
        dominates, so tiny buckets (small networks, or near-continuous timing
        policies whose minimum delays shrink the safe window) run through
        plain indexing instead.  The semantics — event order, draws,
        accounting — are identical to the array path.  Node ``v`` is its
        own adversary coordinate.
        """
        part = self._slice
        table = self._table
        pick_base = self._pick_base
        schedule = self._schedule
        indptr = part.indptr_list
        peer = part.peer_list
        target = part.target_list
        port = part.port
        pending = part.pending
        pend_head = part.pend_head
        last_arrival = part.last_arrival
        bounding = part.b
        max_parameter = part.max_parameter
        events = 0
        stepped: list = []
        new_steps: list = []
        for node, step_time in zip(batch, batch_times):
            low, high = indptr[node], indptr[node + 1]
            state_id = int(part.state[node])
            query = table.query_letter_id(state_id)
            count = 0
            for edge in range(low, high):
                if pend_head[edge] <= step_time:
                    queue = pending[edge]
                    letter = -1
                    while queue and queue[0][0] <= step_time:
                        letter = queue.popleft()[1]
                        events += 1
                    port[edge] = letter
                    pend_head[edge] = queue[0][0] if queue else np.inf
                if port[edge] == query:
                    count += 1
            if count > bounding:
                count = bounding
            step_executed = int(part.step[node])
            offset, n_options = table.cell(state_id, count)
            if n_options > 1:
                pick = async_counter_pick(pick_base, node, step_executed, n_options)
            else:
                pick = 0
            new_state, emit = table.option(offset + pick)
            part.non_output += table.output_flag(state_id) - table.output_flag(new_state)
            part.state[node] = new_state
            part.steps_taken += 1
            events += 1
            if emit >= 0:
                part.messages += 1
                for edge in range(low, high):
                    delay = schedule.delivery_delay(node, step_executed, peer[edge])
                    if delay > max_parameter:
                        max_parameter = delay
                    arrival = step_time + delay
                    if arrival < last_arrival[edge]:
                        arrival = float(last_arrival[edge])
                    last_arrival[edge] = arrival
                    slot = target[edge]
                    pending[slot].append((arrival, emit))
                    if arrival < pend_head[slot]:
                        pend_head[slot] = arrival
            next_length = float(part.next_length[node])
            if next_length > max_parameter:
                max_parameter = next_length
            part.next_time[node] = step_time + next_length
            part.step[node] = step_executed + 1
            stepped.append(node)
            new_steps.append(step_executed + 1)
            self._now = step_time
            if part.non_output == 0:
                self._output_time = self._now
                break
        # A node steps at most once per bucket and the next selection is the
        # first to read its new lookahead, so one refresh serves the bucket.
        if part.blocks:
            part.refresh_scalar(stepped, new_steps)
        else:
            part.refresh(np.asarray(stepped, dtype=np.int64))
        part.events += events
        part.max_parameter = max_parameter

    def run(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        *,
        raise_on_timeout: bool = False,
    ) -> ExecutionResult:
        """Process event buckets until the first output configuration."""
        part = self._slice
        while self._graph.num_nodes and self._output_time is None:
            if part.events >= max_events:
                break
            self._bucket()
        reached = self._output_time is not None
        result = build_asynchronous_result(
            self._protocol,
            self._graph,
            self.states,
            reached=reached,
            elapsed=self._output_time if reached else self._now,
            max_parameter=max(self._max_parameter, part.max_parameter),
            total_node_steps=part.steps_taken,
            total_messages=part.messages,
            seed=self._seed,
            adversary_name=self._adversary_name,
            backend="vectorized",
        )
        if not reached and raise_on_timeout:
            raise OutputNotReachedError(
                f"no output configuration within {max_events} events", result
            )
        return result
