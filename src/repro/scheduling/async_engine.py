"""Event-driven execution of strict nFSM protocols under adversarial timing.

This engine implements the raw model of Section 2:

* every node executes discrete steps whose lengths ``L_{v,t}`` are chosen by
  an adversary policy; the transition function is applied instantaneously at
  the end of each step;
* a transmitted letter is delivered to each neighbour's port after an
  adversary-chosen delay ``D_{v,t,u}``; deliveries from the same sender to
  the same receiver respect FIFO order, but there is **no buffering** — a
  later delivery overwrites the port, so a message can be lost without the
  receiver ever observing it;
* the measured run-time is the elapsed time until the first output
  configuration, divided by the largest step-length / delay parameter the
  adversary used up to that point (the paper's "time unit").

Event ordering is *canonical*: events are processed in ascending time, and
within one instant all deliveries precede all step transitions (a message
arriving exactly when a step ends is therefore observed by that step);
equal-time deliveries are ordered by ``(sender, step, receiver)`` and
equal-time steps by node id.  Delivery delays are strictly positive, so
same-instant steps can never observe each other's emissions — the tie rule
only pins down a deterministic total order.  The vectorized backend
(:mod:`repro.scheduling.vectorized_async_engine`) implements exactly the
same order with time-bucketed batches, which is what makes the two engines
interchangeable per seed.

Only strict (single-query-letter) protocols can run here; multi-letter
protocols are first lowered through the compilers of
:mod:`repro.compilers`.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable, Mapping
from typing import Any

from repro.core.alphabet import is_epsilon
from repro.core.budgets import DEFAULT_MAX_EVENTS
from repro.core.counters import record_engine_run
from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.network import NetworkState
from repro.core.protocol import Protocol, State
from repro.core.results import (
    ExecutionResult,
    TransitionRecord,
    build_asynchronous_result,
)
from repro.graphs.graph import Graph
from repro.scheduling.adversary import (
    AdversaryPolicy,
    SynchronousAdversary,
    derive_adversary_seed,
)
from repro.scheduling.picks import async_counter_pick, async_pick_base, resolve_pick_seed
from repro.scheduling.sync_engine import _check_backend

TransitionObserver = Callable[[TransitionRecord], None]
"""Callback invoked after every applied node transition."""

#: Below this network size ``backend="auto"`` stays on the interpreter: the
#: per-bucket array overhead only amortises once buckets hold enough steps.
#: Results are backend-independent, so the cutoff is purely a speed heuristic.
AUTO_VECTORIZE_MIN_NODES = 192

_DELIVERY = 0
_STEP = 1


class AsynchronousEngine:
    """Executes a strict protocol under an adversarial asynchronous schedule.

    Parameters
    ----------
    graph:
        The communication graph.
    protocol:
        A strict :class:`~repro.core.protocol.Protocol`.
    adversary:
        The :class:`~repro.scheduling.adversary.AdversaryPolicy` supplying
        step lengths and delivery delays (default: the benign synchronous
        adversary).
    seed:
        Seed for the protocol's random choices (uniform draws from the
        asynchronous counter pick stream of :mod:`repro.scheduling.picks`;
        ``None`` draws fresh randomness).
    adversary_seed:
        Separate seed for the adversary's random stream, keeping the
        adversary oblivious to the protocol's coins as the model requires.
        Defaults to a deterministic integer mix of ``seed`` (see
        :func:`~repro.scheduling.adversary.derive_adversary_seed`), so runs
        reproduce across processes regardless of string-hash randomization.
    inputs:
        Optional per-node input values.
    observer:
        Optional per-transition callback (used by trace-based tests).
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
        observer: TransitionObserver | None = None,
    ) -> None:
        if not isinstance(protocol, Protocol):
            raise ExecutionError(
                "the asynchronous engine executes strict protocols only; "
                "lower multi-letter protocols through repro.compilers first"
            )
        self._graph = graph
        self._protocol = protocol
        self._seed = seed
        self._pick_base = async_pick_base(resolve_pick_seed(seed))
        adversary = adversary if adversary is not None else SynchronousAdversary()
        adversary_rng = random.Random(
            adversary_seed if adversary_seed is not None else derive_adversary_seed(seed)
        )
        self._schedule = adversary.start(graph, adversary_rng)
        self._adversary_name = adversary.name
        self._observer = observer
        inputs = dict(inputs or {})
        initial_states = [
            protocol.initial_state(inputs.get(node)) for node in graph.nodes
        ]
        self._state = NetworkState(graph, initial_states, protocol.initial_letter)
        # Incrementally maintained count of nodes outside Q_O: the per-step
        # output check is O(1) instead of an O(n) scan over all states.
        self._non_output = sum(
            1 for state in initial_states if not protocol.is_output_state(state)
        )
        self._messages = 0
        self._max_parameter = 0.0
        self._now = 0.0
        # Heap keys are (time, kind, sender/node, step, receiver[, letter]);
        # the first five fields are unique per event, so ordering is total
        # and deterministic (deliveries sort before steps at equal time).
        self._queue: list[tuple] = []
        # FIFO guard: last scheduled arrival time per (sender, receiver).
        self._last_arrival: dict[tuple[int, int], float] = {}
        self._output_time: float | None = None
        for node in graph.nodes:
            self._schedule_step(node, step=1, start_time=0.0)

    # ------------------------------------------------------------------ #
    # Event plumbing                                                      #
    # ------------------------------------------------------------------ #
    def _schedule_step(self, node: int, step: int, start_time: float) -> None:
        length = self._schedule.step_length(node, step)
        self._max_parameter = max(self._max_parameter, length)
        heapq.heappush(self._queue, (start_time + length, _STEP, node, step, -1))

    def _schedule_deliveries(self, sender: int, step: int, letter: Any, now: float) -> None:
        for receiver in self._graph.neighbors(sender):
            delay = self._schedule.delivery_delay(sender, step, receiver)
            self._max_parameter = max(self._max_parameter, delay)
            arrival = now + delay
            # FIFO: a later transmission must not arrive before an earlier one.
            previous = self._last_arrival.get((sender, receiver), 0.0)
            arrival = max(arrival, previous)
            self._last_arrival[(sender, receiver)] = arrival
            heapq.heappush(
                self._queue, (arrival, _DELIVERY, sender, step, receiver, letter)
            )
        self._messages += 1

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> tuple[State, ...]:
        return tuple(self._state.states)

    @property
    def now(self) -> float:
        """Current adversary-clock time."""
        return self._now

    def in_output_configuration(self) -> bool:
        return self._non_output == 0

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #
    def _apply_step(self, node: int, step: int, time: float) -> None:
        protocol = self._protocol
        old_state = self._state.states[node]
        letter = protocol.query_letter(old_state)
        raw = sum(1 for content in self._state.ports.contents(node) if content == letter)
        choices = protocol.validate_option_set(
            protocol.options(old_state, protocol.bounding(raw))
        )
        if len(choices) == 1:
            chosen = choices[0]
        else:
            chosen = choices[async_counter_pick(self._pick_base, node, step, len(choices))]
        self._state.states[node] = chosen.state
        self._state.steps_taken[node] += 1
        self._non_output += int(protocol.is_output_state(old_state)) - int(
            protocol.is_output_state(chosen.state)
        )
        if not is_epsilon(chosen.emit):
            self._schedule_deliveries(node, step, chosen.emit, time)
        if self._observer is not None:
            self._observer(
                TransitionRecord(
                    node=node,
                    step=step,
                    time=time,
                    old_state=old_state,
                    new_state=chosen.state,
                    emitted=None if is_epsilon(chosen.emit) else chosen.emit,
                )
            )
        self._schedule_step(node, step + 1, time)

    def run(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        *,
        raise_on_timeout: bool = False,
    ) -> ExecutionResult:
        """Process events until the first output configuration.

        ``max_events`` bounds the total number of processed step/delivery
        events so that a broken protocol cannot loop forever.
        """
        events_processed = 0
        while self._queue and events_processed < max_events and self._output_time is None:
            event = heapq.heappop(self._queue)
            time, kind = event[0], event[1]
            self._now = time
            events_processed += 1
            if kind == _DELIVERY:
                _, _, sender, _, receiver, letter = event
                self._state.ports.deliver(receiver, sender, letter)
            else:
                _, _, node, step, _ = event
                self._apply_step(node, step, time)
                if self._non_output == 0:
                    self._output_time = time
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
            self._state.states,
            reached=reached,
            elapsed=self._output_time if reached else self._now,
            max_parameter=self._max_parameter,
            total_node_steps=sum(self._state.steps_taken),
            total_messages=self._messages,
            seed=self._seed,
            adversary_name=self._adversary_name,
            backend="python",
        )


def _run_asynchronous(
    graph: Graph,
    protocol: Protocol,
    *,
    adversary: AdversaryPolicy | None = None,
    seed: int | None = None,
    adversary_seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    raise_on_timeout: bool = True,
    observer: TransitionObserver | None = None,
    backend: str = "python",
    table=None,
    shards: int | None = None,
) -> ExecutionResult:
    """Build the selected asynchronous engine and run it (internal primitive).

    This is the execution primitive behind the :class:`repro.api.Simulation`
    facade: :meth:`~repro.api.Simulation.run_protocol` and every spec-driven
    asynchronous run reach the asynchronous engines through it.

    ``backend`` selects the execution strategy — ``"python"`` (the
    interpreted reference engine), ``"vectorized"`` (time-bucketed event
    batches over lazily compiled tables, see :mod:`repro.scheduling.
    vectorized_async_engine`) or ``"auto"`` (the batched engine when the
    protocol and the adversary support it *and* the network has at least
    :data:`AUTO_VECTORIZE_MIN_NODES` nodes — below that the interpreter is
    faster; interpreted otherwise).  An unknown token raises
    :class:`ExecutionError`.  Terminating runs produce identical results for
    the same seeds on every backend.

    ``table`` optionally supplies a pre-warmed
    :class:`~repro.scheduling.compiled.LazyStrictTable` so repeated runs of
    the same protocol share one incremental tabulation; it is ignored by the
    ``"python"`` backend.  Observers are only supported by the interpreted
    engine — supplying one forces ``backend="python"`` semantics under
    ``"auto"`` and is an error under ``"vectorized"``.

    ``shards`` changes nothing here: an asynchronous run is one process.
    A ``shards >= 2`` request records why it ran unsharded, plus one-shard
    partition statistics, in ``result.metadata``; the size heuristic of
    ``"auto"`` ignores it, and ``backend="python"`` with ``shards >= 2`` is
    an error.  Under ``"auto"``, a batched run whose table refuses the
    protocol mid-run is rerun on the interpreter; that rerun still counts as
    one engine run.
    """
    _check_backend(backend)
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ExecutionError(f"shards must be >= 1, got {shards}")
    sharded = shards is not None and shards >= 2
    if sharded and backend == "python":
        raise ExecutionError(
            "shards= requires the vectorized backend; backend='python' "
            "interprets nodes serially and cannot shard"
        )
    if observer is not None and backend == "vectorized":
        raise ExecutionError(
            "the vectorized asynchronous backend does not support "
            "per-transition observers; use backend='python'"
        )
    dropped = f" (shards={shards} dropped)" if sharded else ""
    common = dict(adversary=adversary, seed=seed, adversary_seed=adversary_seed, inputs=inputs)
    engine = None
    reason = None
    # Partition statistics of a shards >= 2 request, which runs on one process.
    annotation: dict[str, Any] = (
        dict(shard_count=1, cut_edges=0, halo_bytes_per_bucket=0, partition_strategy="none")
        if sharded
        else {}
    )
    batched = backend == "vectorized" or (
        backend == "auto" and observer is None and graph.num_nodes >= AUTO_VECTORIZE_MIN_NODES
    )
    if batched:
        from repro.scheduling.vectorized_async_engine import VectorizedAsynchronousEngine

        try:
            engine = VectorizedAsynchronousEngine(graph, protocol, table=table, **common)
        except ProtocolNotVectorizableError as exc:
            if backend != "auto":
                raise
            reason = f"auto fell back to the interpreter{dropped}: {exc}"
        else:
            reason = "protocol and adversary support event batching"
    if engine is None:
        if reason is None:  # chosen up front, not fallen back to
            if backend == "python":
                reason = "backend='python' requested"
            elif observer is not None:
                reason = f"per-transition observers require the interpreted engine{dropped}"
            else:
                reason = (
                    f"auto stayed interpreted{dropped}: n < {AUTO_VECTORIZE_MIN_NODES} "
                    "(batching overhead dominates on small networks)"
                )
        engine = AsynchronousEngine(graph, protocol, observer=observer, **common)
    elif sharded:
        reason = (
            f"shards={shards} requested but asynchronous runs execute on one "
            f"process; ran unsharded ({reason})"
        )
    record_engine_run("async")

    def execute(chosen) -> ExecutionResult:
        try:
            result = chosen.run(max_events=max_events, raise_on_timeout=raise_on_timeout)
        except OutputNotReachedError as exc:
            if exc.result is not None:
                exc.result.metadata.update(annotation, backend_reason=reason)
            raise
        result.metadata.update(annotation, backend_reason=reason)
        return result

    try:
        return execute(engine)
    except ProtocolNotVectorizableError as exc:
        # A lazy table can refuse the protocol mid-run (state budget, a
        # failing cell evaluation); "auto" then reruns on the interpreter.
        if backend != "auto" or isinstance(engine, AsynchronousEngine):
            raise
        reason = f"auto fell back to the interpreter{dropped}: {exc}"
        return execute(AsynchronousEngine(graph, protocol, observer=observer, **common))
