"""The dynamic-graph environment: churn between stabilisations.

The paper motivates networked finite state machines with networks whose
topology is not fixed — sensors die, links drop, organisms move.  This
module executes that story as a sequence of **stabilisation segments**
over a :class:`~repro.graphs.dynamic.DynamicGraph`:

1. run the protocol on the current snapshot until it reaches an output
   configuration (an ordinary synchronous execution, on whichever backend
   the capability negotiation selects);
2. apply the next disturbance of the churn schedule, producing a new
   versioned snapshot;
3. carry every node's ``(state, last transmitted letter)`` across the
   boundary, ask the protocol which nodes must restart
   (:meth:`~repro.core.protocol._ProtocolBase.churn_restart_set`), reset
   exactly those, and continue — measuring how many rounds the network
   needs to *re*-converge.

The carried letter vector is a complete port description because
synchronous execution only ever broadcasts: the port ``ψ_v(u)`` always
holds the last letter ``u`` transmitted, so re-broadcasting one letter per
sender over the *new* topology reproduces precisely what each surviving
node would see.  Frozen output nodes keep announcing their output letter;
restarted nodes announce their restart letter.

Determinism contract
--------------------
Segment ``k`` runs under :func:`~repro.graphs.dynamic.derive_segment_seed`
``(seed, k)`` — segment 0 keeps the spec seed, so a dynamic run's first
segment is bitwise identical to the corresponding static run, and each
later segment is an ordinary seeded run from a deterministic warm-start
configuration.  Cross-backend parity of a whole dynamic run therefore
reduces to the per-segment parity the backend suite already pins, and the
per-disturbance metadata (re-convergence rounds, applied events, restart
counts) is identical on every backend.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.core.counters import record_engine_run
from repro.core.errors import ExecutionError, OutputNotReachedError
from repro.core.protocol import ExtendedProtocol, Protocol
from repro.core.results import ExecutionResult, build_synchronous_result
from repro.graphs.dynamic import ChurnPolicy, DynamicGraph, derive_churn_seed, derive_segment_seed
from repro.graphs.graph import Graph
from repro.scheduling.sync_engine import (
    DEFAULT_MAX_ROUNDS,
    _make_engine,
    _precompile_tables_with_reason,
)


def _run_dynamic(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    churn: ChurnPolicy,
    seed: int | None = None,
    churn_seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observer=None,
    raise_on_timeout: bool = True,
    backend: str = "auto",
    compiled=None,
    table=None,
    shards: int | None = None,
) -> ExecutionResult:
    """Run *protocol* on *graph* under the churn of *churn* (internal primitive).

    ``max_rounds`` is the **total** round budget across all segments; a run
    that exhausts it mid-segment reports ``reached_output=False`` exactly
    like a static timeout.  ``churn_seed`` keys the churn schedule
    explicitly; when ``None`` it is derived from the protocol ``seed``
    (:func:`~repro.graphs.dynamic.derive_churn_seed`), so a seeded spec is
    fully deterministic without extra fields.  ``observer`` receives
    segment-local round indices (each segment is its own synchronous run).

    The result is built on the **final** snapshot; ``rounds`` is the total
    across segments and ``metadata`` carries the dynamic measurement:

    * ``"churn_policy"`` / ``"disturbances"`` — the policy name and how
      many disturbances were applied;
    * ``"initial_rounds"`` — rounds to the first stabilisation;
    * ``"reconvergence_rounds"`` — rounds to re-stabilise after each
      disturbance (the quantity the dynamic experiments sweep);
    * ``"churn_events"`` — the applied events per disturbance, as JSON
      tuples;
    * ``"restart_counts"`` — how many nodes each disturbance restarted.

    ``shards`` splits every segment across shard workers (see
    :mod:`repro.scheduling.sharded_engine`); warm-start configurations are
    carried into the shard workers, so a sharded dynamic run is
    bitwise-identical to the unsharded one.  The partition statistics of
    the *first* segment are recorded in the result metadata (later segments
    re-partition each churned snapshot).
    """
    if not isinstance(churn, ChurnPolicy):
        raise ExecutionError(
            f"churn= must be a ChurnPolicy, got {type(churn).__name__}"
        )
    record_engine_run("dynamic")
    key = derive_churn_seed(seed) if churn_seed is None else churn_seed
    dynamic = DynamicGraph(graph, churn.start(graph.num_nodes, key))
    inputs = dict(inputs or {})

    # One compile step shared by every segment (the session supplies its
    # bundle tables here; direct callers get the same amortisation).
    reason_override = None
    if compiled is None and table is None:
        backend, compiled, table, reason_override = _precompile_tables_with_reason(
            protocol, backend
        )

    states: list | None = None
    letters: list | None = None
    annotation: dict[str, Any] | None = None
    segment_rounds: list[int] = []
    churn_events: list[list] = []
    restart_counts: list[int] = []
    total_rounds = 0
    total_node_steps = 0
    total_messages = 0
    reached = True

    for segment in range(dynamic.num_disturbances + 1):
        engine, selection = _make_engine(
            dynamic.snapshot,
            protocol,
            backend=backend,
            seed=derive_segment_seed(seed, segment),
            inputs=inputs,
            observer=observer,
            compiled=compiled,
            table=table,
            shards=shards,
            initial_states=states,
            initial_letters=letters,
        )
        if annotation is None:
            annotation = dict(
                backend=selection.backend,
                backend_mode=selection.mode,
                backend_reason=(
                    selection.reason if reason_override is None else reason_override
                ),
            )
            shard_info = getattr(engine, "shard_info", None)
            if shard_info is not None:
                annotation.update(
                    shard_count=shard_info["shard_count"],
                    cut_edges=shard_info["cut_edges"],
                    halo_bytes_per_round=shard_info["halo_bytes_per_round"],
                    partition_strategy=shard_info["partition_strategy"],
                )
        try:
            result = engine.run(
                max_rounds=max_rounds - total_rounds, raise_on_timeout=False
            )
            # Decode before close(): a sharded engine's state/letter views
            # live in shared memory that close() releases.
            states = list(engine.states)
            letters = list(engine.last_letters)
        finally:
            close = getattr(engine, "close", None)
            if close is not None:  # sharded engines own workers + segments
                close()
        segment_rounds.append(result.rounds)
        total_rounds += result.rounds
        # Each segment runs on its own churned snapshot, whose node count
        # may differ from the base graph's — accumulate what each segment
        # actually reports instead of multiplying the original size.
        total_node_steps += result.total_node_steps
        total_messages += result.total_messages
        if not result.reached_output:
            reached = False
            break
        if segment == dynamic.num_disturbances:
            break
        # Disturb, then carry the configuration across the boundary.
        dynamic.advance()
        restart = protocol.churn_restart_set(
            dynamic.snapshot, states, dynamic.last_affected
        )
        for node in restart:
            states[node] = protocol.restart_state(inputs.get(node))
            letters[node] = protocol.restart_letter()
        churn_events.append([list(e.to_tuple()) for e in dynamic.last_events])
        restart_counts.append(len(restart))

    final = build_synchronous_result(
        protocol,
        dynamic.snapshot,
        states,
        reached=reached,
        rounds=total_rounds,
        total_node_steps=total_node_steps,
        total_messages=total_messages,
        seed=seed,
    )
    final.metadata.update(annotation)
    final.metadata.update(
        churn_policy=churn.name,
        disturbances=dynamic.version,
        initial_rounds=segment_rounds[0],
        reconvergence_rounds=list(segment_rounds[1:]),
        churn_events=churn_events,
        restart_counts=restart_counts,
    )
    if not reached and raise_on_timeout:
        raise OutputNotReachedError(
            f"no output configuration within {max_rounds} rounds", final
        )
    return final


__all__ = ["_run_dynamic"]
