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
   same normalised run-time — and, since the draws need no shared
   generator, intra-run sharding (:mod:`repro.scheduling.
   sharded_async_engine`) changes nothing either.

The ``max_events`` budget is honoured at bucket granularity: a run may
process up to one bucket past the budget before stopping, so partial
(timed-out) executions are not guaranteed to match the interpreted engine
event for event — terminating runs are.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping
from typing import Any

try:  # NumPy is an optional dependency of the library as a whole.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

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
from repro.scheduling.async_engine import DEFAULT_MAX_EVENTS
from repro.scheduling.compiled import (
    DEFAULT_MAX_LAZY_STATES,
    LazyStrictTable,
    _require_numpy,
)
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

class VectorizedAsynchronousEngine:
    """Executes a strict protocol under adversarial timing in event batches.

    The constructor signature mirrors :class:`~repro.scheduling.async_engine.
    AsynchronousEngine` minus the per-transition observer (incompatible with
    batching).  ``table`` optionally supplies a pre-warmed
    :class:`~repro.scheduling.compiled.LazyStrictTable` shared across runs of
    the same protocol; the caller must guarantee it was built from an
    equivalent protocol.

    Raises :class:`ProtocolNotVectorizableError` when NumPy is missing or
    the adversary's schedule does not support pure batch sampling
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
        max_states: int = DEFAULT_MAX_LAZY_STATES,
        use_kernel: bool = False,
        rng_node_keys=None,
    ) -> None:
        _require_numpy()
        if use_kernel:
            from repro.scheduling.kernels import _call, require_kernels

            require_kernels()
            self._kernel_call = _call
        self._use_kernel = bool(use_kernel)
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
        # Pick keys are original node ids; a permuted run passes the inverse
        # permutation so each node keeps drawing under its original identity.
        if rng_node_keys is None:
            self._node_keys = np.arange(graph.num_nodes, dtype=np.uint64)
        else:
            self._node_keys = np.ascontiguousarray(rng_node_keys, dtype=np.uint64)
            if self._node_keys.shape != (graph.num_nodes,):
                raise ExecutionError(
                    "rng_node_keys must hold one key per node "
                    f"(expected {graph.num_nodes}, got {self._node_keys.shape})"
                )
        self._table = table if table is not None else LazyStrictTable(
            protocol, max_states=max_states
        )
        self._b = protocol.bounding.value
        self._b1 = self._b + 1

        n = graph.num_nodes
        inputs = dict(inputs or {})
        initial_states = [
            protocol.initial_state(inputs.get(node)) for node in graph.nodes
        ]
        self._state = np.asarray(
            [self._table.state_id(state) for state in initial_states], dtype=np.int64
        )
        _, output_mask, *_ = self._table.arrays()
        self._non_output = int(n - output_mask[self._state].sum()) if n else 0

        # Edge layout: entry e of the CSR adjacency encodes the directed pair
        # (row[e] -> col[e]) when read sender-major and the port
        # ``ψ_{row[e]}(col[e])`` when read receiver-major; ``reverse[e]`` maps
        # a sender-major out-edge to the receiver-major port slot it writes.
        indptr, indices = graph.csr_adjacency()
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._col = np.asarray(indices, dtype=np.int64)
        self._degrees = np.diff(self._indptr)
        row = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        self._row = row
        self._reverse = np.lexsort((row, self._col))
        m = len(self._col)

        self._port = np.full(m, self._table.initial_letter_id, dtype=np.int64)
        # Pending deliveries per receiver-major edge: FIFO of (arrival, letter)
        # with non-decreasing arrivals; _pend_head caches the earliest arrival
        # (inf when empty) so empty queues cost one array compare, not a loop.
        self._pending: list[deque] = [deque() for _ in range(m)]
        self._pend_head = np.full(m, np.inf)
        # Sender-major per-edge bookkeeping.
        self._last_arrival = np.zeros(m)
        self._pending_delay = np.zeros(m)

        self._steps_taken = np.zeros(n, dtype=np.int64)
        self._messages = 0
        self._now = 0.0
        self._output_time: float | None = None

        nodes = np.arange(n, dtype=np.int64)
        self._step = np.ones(n, dtype=np.int64)
        if n:
            lengths = schedule.step_lengths(nodes, self._step)
            self._max_parameter = float(lengths.max())
            self._next_time = lengths.astype(np.float64)
        else:
            self._max_parameter = 0.0
            self._next_time = np.zeros(0)
        # Margin mode: with a useful static delay lower bound the engine
        # never samples delays for steps that end up transmitting nothing
        # (matching the interpreted engine's sampling volume); without one
        # (near-continuous policies like the exponential adversary, whose
        # static floor is uselessly small) it samples the pending step's
        # delays up front — costlier, but the larger data-driven margins
        # keep the buckets from collapsing to single steps.
        bound = schedule.delay_lower_bound()
        self._static_bound: float | None = None
        if bound is not None and n:
            if 8.0 * bound >= float(np.median(self._next_time)):
                self._static_bound = float(bound)
        self._next_length = np.zeros(n)
        self._margin = np.zeros(n)
        self._refresh_lookahead(nodes)

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> tuple[State, ...]:
        decode = self._table.state_value
        return tuple(decode(int(ident)) for ident in self._state)

    @property
    def now(self) -> float:
        """Current adversary-clock time."""
        return self._now

    @property
    def table(self) -> LazyStrictTable:
        return self._table

    def in_output_configuration(self) -> bool:
        return self._non_output == 0

    # ------------------------------------------------------------------ #
    # Internal helpers                                                    #
    # ------------------------------------------------------------------ #
    def _ragged_edges(self, nodes, lens):
        """Segment ids and edge ids of the CSR rows of *nodes*, concatenated."""
        total = int(lens.sum())
        seg = np.repeat(np.arange(len(nodes)), lens)
        ends = np.cumsum(lens)
        offsets = np.arange(total) - np.repeat(ends - lens, lens)
        edges = np.repeat(self._indptr[nodes], lens) + offsets
        return seg, edges

    def _refresh_lookahead(self, nodes) -> None:
        """Recompute the batching lookahead after *nodes* scheduled new steps.

        Samples (purely, without accounting) the pending step's delivery
        delays — cached for reuse when the step actually emits — and the
        following step's length, and stores ``margin[v]`` such that
        ``next_time[v] + margin[v]`` lower-bounds the earliest instant any
        *future* action of ``v`` can influence another node.
        """
        if nodes.size == 0:
            return
        steps = self._step[nodes]
        lens = self._degrees[nodes]
        scalar_cutoff = 48 if self._static_bound is not None else 32
        if nodes.size + int(lens.sum()) <= scalar_cutoff:
            # Tiny batches: the scalar sampling path is bitwise-identical
            # and dodges the array-call overhead.
            self._refresh_lookahead_scalar(nodes.tolist(), steps.tolist())
            return
        next_lengths = self._schedule.step_lengths(nodes, steps + 1)
        self._next_length[nodes] = next_lengths
        if self._static_bound is not None:
            self._margin[nodes] = np.minimum(next_lengths, self._static_bound)
            return
        min_delay = np.full(nodes.size, np.inf)
        total = int(lens.sum())
        if total:
            seg, edges = self._ragged_edges(nodes, lens)
            delays = self._schedule.delivery_delays(
                np.repeat(nodes, lens), np.repeat(steps, lens), self._col[edges]
            )
            self._pending_delay[edges] = delays
            has_edges = lens > 0
            starts = (np.cumsum(lens) - lens)[has_edges]
            min_delay[has_edges] = np.minimum.reduceat(delays, starts)
        self._margin[nodes] = np.minimum(min_delay, next_lengths)

    def _refresh_lookahead_scalar(self, node_list, step_list) -> None:
        schedule = self._schedule
        bound = self._static_bound
        indptr = self._indptr
        col = self._col
        pending_delay = self._pending_delay
        for node, step in zip(node_list, step_list):
            next_length = schedule.step_length(node, step + 1)
            self._next_length[node] = next_length
            if bound is not None:
                self._margin[node] = next_length if next_length < bound else bound
                continue
            margin = next_length
            for edge in range(int(indptr[node]), int(indptr[node + 1])):
                delay = schedule.delivery_delay(node, step, int(col[edge]))
                pending_delay[edge] = delay
                if delay < margin:
                    margin = delay
            self._margin[node] = margin

    def _select_batch(self):
        """A safe time-prefix of pending steps, sorted by (time, node).

        Every pending step strictly before the *global* minimum horizon
        ``min_v (t_v + margin_v)`` is safe to process together: no batched
        step's emission can arrive at, and no batched step's successor can
        fire at, an instant another batch member still has to observe.  The
        node attaining the minimum step time always qualifies (margins are
        strictly positive), so progress is guaranteed; selection is O(n)
        plus a sort of the batch itself.
        """
        times = self._next_time
        if len(times) <= 64:
            time_list = times.tolist()
            horizon_min = min(
                t + m for t, m in zip(time_list, self._margin.tolist())
            )
            batch = [v for v, t in enumerate(time_list) if t < horizon_min]
            if len(batch) > 1:
                batch.sort(key=time_list.__getitem__)  # stable: ties stay by node
            return np.asarray(batch, dtype=np.int64)
        horizon_min = (times + self._margin).min()
        batch = np.flatnonzero(times < horizon_min)
        if len(batch) > 1:
            batch = batch[np.argsort(times[batch], kind="stable")]
        return batch

    def _apply_deliveries(self, seg, edges, batch_times) -> int:
        """Drain pending arrivals up to each batch step's time (last one wins)."""
        ready = np.flatnonzero(self._pend_head[edges] <= batch_times[seg])
        applied = 0
        for k in ready.tolist():
            edge = int(edges[k])
            step_time = batch_times[int(seg[k])]
            queue = self._pending[edge]
            letter = -1
            while queue and queue[0][0] <= step_time:
                letter = queue.popleft()[1]
                applied += 1
            self._port[edge] = letter
            self._pend_head[edge] = queue[0][0] if queue else np.inf
        return applied

    def _emit(self, senders, letters, times, steps) -> None:
        """Schedule deliveries for the emitting *senders* (FIFO-clamped)."""
        self._messages += len(senders)
        lens = self._degrees[senders]
        if not int(lens.sum()):
            return
        seg, edges = self._ragged_edges(senders, lens)
        if self._static_bound is not None:
            delays = self._schedule.delivery_delays(
                np.repeat(senders, lens), np.repeat(steps, lens), self._col[edges]
            )
        else:
            delays = self._pending_delay[edges]
        self._max_parameter = max(self._max_parameter, float(delays.max()))
        arrivals = np.maximum(times[seg] + delays, self._last_arrival[edges])
        self._last_arrival[edges] = arrivals
        targets = self._reverse[edges]
        letters_rep = letters[seg]
        pending = self._pending
        pend_head = self._pend_head
        for k in range(len(edges)):
            target = int(targets[k])
            arrival = float(arrivals[k])
            pending[target].append((arrival, int(letters_rep[k])))
            if arrival < pend_head[target]:
                pend_head[target] = arrival

    def _run_scalar_bucket(self, batch, batch_times) -> tuple[int, bool]:
        """Process a small bucket step-by-step through the scalar table API.

        Below :data:`SCALAR_BUCKET_CUTOFF` steps the fixed per-array-op cost
        dominates, so tiny buckets (small networks, or near-continuous timing
        policies whose minimum delays shrink the safe window) run through
        plain indexing instead.  The semantics — event order, draws,
        accounting — are identical to the array path.
        """
        table = self._table
        pick_base = self._pick_base
        node_keys = self._node_keys
        schedule = self._schedule
        static = self._static_bound is not None
        indptr = self._indptr
        col = self._col
        port = self._port
        pending = self._pending
        pend_head = self._pend_head
        last_arrival = self._last_arrival
        pending_delay = self._pending_delay
        reverse = self._reverse
        bounding = self._b
        max_parameter = self._max_parameter
        events = 0
        terminated = False
        for i in range(len(batch)):
            node = int(batch[i])
            step_time = float(batch_times[i])
            low, high = int(indptr[node]), int(indptr[node + 1])
            state_id = int(self._state[node])
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
            step_executed = int(self._step[node])
            offset, n_options = table.cell(state_id, count)
            if n_options > 1:
                pick = async_counter_pick(
                    pick_base, int(node_keys[node]), step_executed, n_options
                )
            else:
                pick = 0
            new_state, emit = table.option(offset + pick)
            self._non_output += table.output_flag(state_id) - table.output_flag(new_state)
            self._state[node] = new_state
            self._steps_taken[node] += 1
            events += 1
            if emit >= 0:
                self._messages += 1
                for edge in range(low, high):
                    if static:
                        delay = schedule.delivery_delay(
                            node, step_executed, int(col[edge])
                        )
                    else:
                        delay = float(pending_delay[edge])
                    if delay > max_parameter:
                        max_parameter = delay
                    arrival = step_time + delay
                    if arrival < last_arrival[edge]:
                        arrival = float(last_arrival[edge])
                    last_arrival[edge] = arrival
                    target = int(reverse[edge])
                    pending[target].append((arrival, emit))
                    if arrival < pend_head[target]:
                        pend_head[target] = arrival
            next_length = float(self._next_length[node])
            if next_length > max_parameter:
                max_parameter = next_length
            self._next_time[node] = step_time + next_length
            self._step[node] += 1
            self._refresh_lookahead_scalar([node], [int(self._step[node])])
            self._now = step_time
            if self._non_output == 0:
                terminated = True
                break
        self._max_parameter = max_parameter
        return events, terminated

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        *,
        raise_on_timeout: bool = False,
    ) -> ExecutionResult:
        """Process event buckets until the first output configuration."""
        events_processed = 0
        b1 = self._b1
        while self._graph.num_nodes and self._output_time is None:
            if events_processed >= max_events:
                break
            batch = self._select_batch()
            batch_times = self._next_time[batch]
            if len(batch) <= SCALAR_BUCKET_CUTOFF:
                bucket_events, terminated = self._run_scalar_bucket(batch, batch_times)
                events_processed += bucket_events
                if terminated:
                    self._output_time = self._now
                continue

            # Ports first: drain arrivals up to each step's instant, then
            # count the queried letter over each node's in-edges.
            lens = self._degrees[batch]
            counts = np.zeros(len(batch), dtype=np.int64)
            if int(lens.sum()):
                seg, edges = self._ragged_edges(batch, lens)
                events_processed += self._apply_deliveries(seg, edges, batch_times)
                query, _, *_ = self._table.arrays()
                if self._use_kernel:
                    # Counts + bounding clamp in one compiled pass; bitwise
                    # the bincount/minimum pair below.
                    self._kernel_call(
                        "async_bucket_census",
                        self._port,
                        edges,
                        seg,
                        query[self._state[batch]],
                        self._b,
                        counts,
                    )
                else:
                    matches = self._port[edges] == query[self._state[batch]][seg]
                    counts = np.bincount(
                        seg, weights=matches, minlength=len(batch)
                    ).astype(np.int64)
            if not self._use_kernel:
                counts = np.minimum(counts, self._b)

            state_batch = self._state[batch]
            self._table.ensure_cells(state_batch, counts)
            _, output_mask, cell_offset, cell_count, option_next, option_emit = (
                self._table.arrays()
            )
            cell = state_batch * b1 + counts
            offsets = cell_offset[cell]
            n_options = cell_count[cell]

            # Optimistic apply: draw every multi-option pick and transition
            # the whole bucket with array lookups.  Termination is possible
            # only when the non-output count fits inside the bucket; in that
            # rare case (at most once per run) a prefix scan locates the
            # exact step completing the configuration and the suffix is
            # discarded — the draws are stateless, so it consumed nothing.
            may_terminate = self._non_output <= len(batch)
            picks = async_counter_picks(
                self._pick_base, self._node_keys[batch], self._step[batch], n_options
            )
            if self._use_kernel:
                # Transitions + running-counter termination scan in one
                # compiled pass; bitwise the gather/cumsum block below.
                new_states = np.empty(len(batch), dtype=np.int64)
                emits = np.empty(len(batch), dtype=np.int64)
                processed, running_end, terminated = self._kernel_call(
                    "async_bucket_apply",
                    offsets,
                    picks,
                    option_next,
                    option_emit,
                    output_mask,
                    state_batch,
                    self._non_output,
                    may_terminate,
                    new_states,
                    emits,
                )
                processed = int(processed)
                terminated = bool(terminated)
                if terminated:
                    self._non_output = 0
                    batch = batch[:processed]
                    batch_times = batch_times[:processed]
                    new_states = new_states[:processed]
                    emits = emits[:processed]
                else:
                    self._non_output = int(running_end)
            else:
                selected = offsets + picks
                new_states = option_next[selected]
                emits = option_emit[selected]
                old_output = output_mask[state_batch]
                new_output = output_mask[new_states]
                processed = len(batch)
                terminated = False
                if may_terminate:
                    running = self._non_output + np.cumsum(
                        old_output.astype(np.int64) - new_output.astype(np.int64)
                    )
                    completing = np.flatnonzero(running == 0)
                    if completing.size:
                        processed = int(completing[0]) + 1
                        terminated = True
                        self._non_output = 0
                        batch = batch[:processed]
                        batch_times = batch_times[:processed]
                        new_states = new_states[:processed]
                        emits = emits[:processed]
                    else:
                        self._non_output = int(running[-1])
                else:
                    self._non_output += int(old_output.sum()) - int(new_output.sum())
            self._state[batch] = new_states

            self._steps_taken[batch] += 1
            events_processed += processed

            emitting = np.flatnonzero(emits >= 0)
            if emitting.size:
                senders = batch[emitting]
                self._emit(
                    senders, emits[emitting], batch_times[emitting], self._step[senders]
                )

            # Schedule the next step of every processed node: the pending
            # lookahead length becomes the accounted step length.
            lengths = self._next_length[batch]
            self._max_parameter = max(self._max_parameter, float(lengths.max()))
            self._next_time[batch] = batch_times + lengths
            self._step[batch] += 1
            self._refresh_lookahead(batch)

            self._now = float(batch_times[-1])
            if terminated:
                self._output_time = self._now

        reached = self._output_time is not None
        result = self._build_result(reached)
        if not reached and raise_on_timeout:
            raise OutputNotReachedError(
                f"no output configuration within {max_events} events", result
            )
        return result

    def _build_result(self, reached: bool) -> ExecutionResult:
        return build_asynchronous_result(
            self._protocol,
            self._graph,
            self.states,
            reached=reached,
            elapsed=self._output_time if reached else self._now,
            max_parameter=self._max_parameter,
            total_node_steps=int(self._steps_taken.sum()),
            total_messages=self._messages,
            seed=self._seed,
            adversary_name=self._adversary_name,
            backend="kernel" if self._use_kernel else "vectorized",
        )


def run_vectorized_asynchronous(
    graph: Graph,
    protocol: Protocol,
    *,
    adversary: AdversaryPolicy | None = None,
    seed: int | None = None,
    adversary_seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    raise_on_timeout: bool = True,
    table: LazyStrictTable | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`VectorizedAsynchronousEngine`, run it."""
    engine = VectorizedAsynchronousEngine(
        graph,
        protocol,
        adversary=adversary,
        seed=seed,
        adversary_seed=adversary_seed,
        inputs=inputs,
        table=table,
    )
    return engine.run(max_events=max_events, raise_on_timeout=raise_on_timeout)
