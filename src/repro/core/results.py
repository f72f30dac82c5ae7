"""Execution results and trace records returned by the engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.protocol import State
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class TransitionRecord:
    """One applied transition of one node (asynchronous engine trace entry).

    Attributes
    ----------
    node:
        The node that applied its transition function.
    step:
        The node-local step index ``t`` (1-based, as in the paper).
    time:
        The absolute (adversary-clock) time at which the transition fired.
    old_state / new_state:
        Protocol states before and after the transition.
    emitted:
        The transmitted letter, or ``None`` when the node transmitted ``ε``.
    """

    node: int
    step: int
    time: float
    old_state: State
    new_state: State
    emitted: Any


@dataclass
class ExecutionResult:
    """Outcome of running a protocol on a graph.

    The run-time fields follow the paper's two measures:

    * ``rounds`` — number of synchronous rounds (locally synchronous
      executions, Section 3), ``None`` for asynchronous runs;
    * ``time_units`` — the asynchronous run-time of Section 2: elapsed
      adversary-clock time divided by the largest step-length / delivery-delay
      parameter used before the output configuration was reached, ``None``
      for synchronous runs.
    """

    protocol_name: str
    graph: Graph
    reached_output: bool
    final_states: tuple[State, ...]
    outputs: dict[int, Any]
    rounds: int | None = None
    time_units: float | None = None
    elapsed_time: float | None = None
    total_node_steps: int = 0
    total_messages: int = 0
    seed: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def nodes_with_output(self, value: Any) -> list[int]:
        """All nodes whose decoded output equals *value*."""
        return sorted(node for node, output in self.outputs.items() if output == value)

    def output_vector(self) -> tuple[Any, ...]:
        """Outputs indexed by node (``None`` for nodes without an output)."""
        return tuple(self.outputs.get(node) for node in self.graph.nodes)

    @property
    def cost(self) -> float:
        """The natural cost of this run: rounds if synchronous, time units otherwise."""
        if self.rounds is not None:
            return float(self.rounds)
        if self.time_units is not None:
            return float(self.time_units)
        return float("nan")

    def summary_fields(self) -> tuple:
        """The fields every synchronous backend must agree on, as a tuple.

        Used by the backend-parity tests: two engines executing the same
        (graph, protocol, seed) triple must produce equal tuples.
        """
        return (
            self.protocol_name,
            self.graph,
            self.reached_output,
            self.final_states,
            self.outputs,
            self.rounds,
            self.total_node_steps,
            self.total_messages,
            self.seed,
        )

    def summary(self) -> str:
        """One-line human-readable summary (used by examples and reports)."""
        parts = [
            f"protocol={self.protocol_name}",
            f"n={self.graph.num_nodes}",
            f"m={self.graph.num_edges}",
            f"reached_output={self.reached_output}",
        ]
        if self.rounds is not None:
            parts.append(f"rounds={self.rounds}")
        if self.time_units is not None:
            parts.append(f"time_units={self.time_units:.2f}")
        parts.append(f"steps={self.total_node_steps}")
        parts.append(f"messages={self.total_messages}")
        return " ".join(parts)


def build_asynchronous_result(
    protocol,
    graph: Graph,
    final_states,
    *,
    reached: bool,
    elapsed: float | None,
    max_parameter: float,
    total_node_steps: int,
    total_messages: int,
    seed: int | None,
    adversary_name: str,
    backend: str,
) -> ExecutionResult:
    """Assemble the :class:`ExecutionResult` of an asynchronous execution.

    Shared by the interpreted and the vectorized asynchronous backend so that
    both decode outputs and normalise the run-time identically — ``elapsed``
    is divided by ``max_parameter`` (the largest step-length / delivery-delay
    the adversary used), exactly the paper's time-unit definition.
    """
    final_states = tuple(final_states)
    outputs = {
        node: protocol.output_value(state)
        for node, state in enumerate(final_states)
        if protocol.is_output_state(state)
    }
    time_units = None
    if elapsed is not None and max_parameter > 0:
        time_units = elapsed / max_parameter
    return ExecutionResult(
        protocol_name=protocol.name,
        graph=graph,
        reached_output=reached,
        final_states=final_states,
        outputs=outputs,
        rounds=None,
        time_units=time_units,
        elapsed_time=elapsed,
        total_node_steps=total_node_steps,
        total_messages=total_messages,
        seed=seed,
        metadata={
            "adversary": adversary_name,
            "max_parameter": max_parameter,
            "backend": backend,
        },
    )


def build_synchronous_result(
    protocol,
    graph: Graph,
    final_states,
    *,
    reached: bool,
    rounds: int,
    total_node_steps: int,
    total_messages: int,
    seed: int | None,
    state_table=None,
) -> ExecutionResult:
    """Assemble the :class:`ExecutionResult` of a synchronous execution.

    Both backends assemble their results here, on one of two branches that
    keep the same rule: nodes in ascending order, and only a node in an
    output state gets an entry in ``outputs``.

    The interpreter passes one protocol state per node, and the protocol is
    asked about each node: that branch is the reference.  An engine running
    off a state table (a :class:`~repro.scheduling.compiled.CompiledProtocol`
    or a :class:`~repro.scheduling.compiled.LazyExtendedTable`) passes the
    per-node state ids as ``final_states`` and the table as ``state_table``.
    An output depends on the state alone, so the table's ``output_mask``
    picks the output nodes and ``output_value`` runs once per output state
    present.  That branch matches the reference only as far as
    ``output_mask`` matches ``is_output_state``; the backend-parity suites
    check it against the interpreter.
    """
    if state_table is None:
        final_states = tuple(final_states)
        outputs = {
            node: protocol.output_value(state)
            for node, state in enumerate(final_states)
            if protocol.is_output_state(state)
        }
    else:
        outputs = _table_outputs(protocol, final_states, state_table)
        final_states = decode_states(state_table, final_states)
    return ExecutionResult(
        protocol_name=protocol.name,
        graph=graph,
        reached_output=reached,
        final_states=final_states,
        outputs=outputs,
        rounds=rounds,
        total_node_steps=total_node_steps,
        total_messages=total_messages,
        seed=seed,
    )


def decode_states(state_table, state_ids) -> tuple:
    """The state object of *state_table* behind each of *state_ids*."""
    return tuple(map(state_table.states.__getitem__, state_ids.tolist()))


def _table_outputs(protocol, state_ids, state_table) -> dict[int, Any]:
    """The outputs of the nodes holding *state_ids* into *state_table*, by node."""
    nodes = np.flatnonzero(state_table.output_mask[state_ids])
    held = state_ids[nodes]
    states = state_table.states
    present = np.flatnonzero(np.bincount(held, minlength=len(states)))
    value = {ident: protocol.output_value(states[ident]) for ident in present.tolist()}
    return dict(zip(nodes.tolist(), map(value.__getitem__, held.tolist())))
