"""Simulating an nFSM protocol with linear space (paper Lemma 6.1).

Lemma 6.1 states that an rLBA — a Turing machine whose work tape is confined
to the cells holding the input — can simulate the execution of any nFSM
protocol on any graph.  The crux is a space argument: the input already
encodes the graph as an adjacency list, and the simulation only needs to
annotate it with

* one cell per node holding the node's current protocol state,
* one cell per node holding the letter the node is about to transmit, and
* one cell per adjacency-list entry holding the corresponding port content,

i.e. **O(1) additional cells per node and per edge entry**.  Each round is
then two sweeps over the tape: the first sweep applies every node's
transition function (reading its state and its port cells and writing the
next state and the pending letter), the second sweep delivers the pending
letters into the neighbours' port cells.

:class:`LinearSpaceNetworkSimulator` realises this construction literally:
all mutable simulation data lives in one flat ``tape`` list laid out exactly
as above, and the per-round work is performed by the two sweeps of the
lemma.  The finite control of the rLBA is represented by ordinary local
variables ranging over constant-size domains; locating the reverse port cell
of an edge uses a precomputed offset table, standing in for the id-matching
scan a literal rLBA would perform (this affects only the step count, not the
space bound).  The class exposes
:meth:`space_report` so the experiments can verify the O(1)-cells-per-entry
claim, and its executions are bit-for-bit identical to the synchronous
engine's when given the same seed — both draw their coins from the counter
pick stream of :mod:`repro.scheduling.picks` — which is how the tests
establish faithfulness.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.core.alphabet import Observation, is_epsilon
from repro.core.errors import ExecutionError
from repro.core.protocol import ExtendedProtocol, Protocol
from repro.core.results import ExecutionResult
from repro.graphs.graph import Graph
from repro.scheduling.picks import counter_pick, counter_round_key, resolve_pick_seed


#: Marker stored in a pending-emission cell when the node transmits nothing.
NO_EMISSION = "__no_emission__"


@dataclass(frozen=True)
class SpaceReport:
    """Cell accounting of a linear-space simulation.

    ``input_cells`` counts the cells any encoding of the graph already needs
    (one per node plus one per adjacency-list entry); ``state_cells``,
    ``pending_cells`` and ``port_cells`` are the extra cells the simulation
    adds.  Lemma 6.1 is the statement that the extras are O(1) per node and
    per adjacency entry, i.e. ``extra_cells_per_entry`` is bounded by a
    constant (2 in this construction).
    """

    num_nodes: int
    num_adjacency_entries: int
    input_cells: int
    state_cells: int
    pending_cells: int
    port_cells: int

    @property
    def extra_cells(self) -> int:
        return self.state_cells + self.pending_cells + self.port_cells

    @property
    def extra_cells_per_entry(self) -> float:
        denominator = max(self.num_nodes + self.num_adjacency_entries, 1)
        return self.extra_cells / denominator


class LinearSpaceNetworkSimulator:
    """Round-by-round nFSM simulation confined to a linear tape.

    Parameters mirror :class:`~repro.scheduling.sync_engine.SynchronousEngine`
    so the two can be compared directly; the difference is purely in the data
    representation (a single flat tape instead of per-node Python objects).
    """

    def __init__(
        self,
        graph: Graph,
        protocol: ExtendedProtocol | Protocol,
        *,
        seed: int | None = None,
        inputs: Mapping[int, Any] | None = None,
    ) -> None:
        self._graph = graph
        self._protocol = protocol
        self._multi_letter = isinstance(protocol, ExtendedProtocol)
        self._seed = seed
        self._pick_seed = resolve_pick_seed(seed)
        inputs = dict(inputs or {})

        # Tape layout: for every node, in node order:
        #   [state cell] [pending-emission cell] [port cell for each neighbour]
        # The offsets below are the only index structure; a literal rLBA finds
        # these positions by scanning for node-id separators instead.
        self._section_start: list[int] = []
        self.tape: list[Any] = []
        for node in graph.nodes:
            self._section_start.append(len(self.tape))
            self.tape.append(protocol.initial_state(inputs.get(node)))
            self.tape.append(NO_EMISSION)
            self.tape.extend([protocol.initial_letter] * graph.degree(node))
        self._initial_tape_length = len(self.tape)

        # Reverse-port offsets: for the k-th neighbour u of v, the cell of
        # ψ_u(v) (u's port for v).
        self._reverse_port: list[list[int]] = []
        for node in graph.nodes:
            offsets = []
            for neighbour in graph.neighbors(node):
                slot = graph.neighbors(neighbour).index(node)
                offsets.append(self._section_start[neighbour] + 2 + slot)
            self._reverse_port.append(offsets)

        self._round = 0
        self._messages = 0

    # ------------------------------------------------------------------ #
    # Tape access helpers (the rLBA's read/write primitives)              #
    # ------------------------------------------------------------------ #
    def _state_cell(self, node: int) -> int:
        return self._section_start[node]

    def _pending_cell(self, node: int) -> int:
        return self._section_start[node] + 1

    def _port_cells(self, node: int) -> range:
        start = self._section_start[node] + 2
        return range(start, start + self._graph.degree(node))

    # ------------------------------------------------------------------ #
    # Simulation                                                          #
    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        return self._round

    def states(self) -> tuple[Any, ...]:
        return tuple(self.tape[self._state_cell(node)] for node in self._graph.nodes)

    def in_output_configuration(self) -> bool:
        return all(
            self._protocol.is_output_state(self.tape[self._state_cell(node)])
            for node in self._graph.nodes
        )

    def _first_sweep(self) -> None:
        """Sweep 1 of Lemma 6.1: compute next states and pending letters."""
        protocol = self._protocol
        round_key = counter_round_key(self._pick_seed, self._round)
        for node in self._graph.nodes:
            state = self.tape[self._state_cell(node)]
            ports = [self.tape[cell] for cell in self._port_cells(node)]
            if self._multi_letter:
                observation = Observation.from_port_contents(
                    protocol.alphabet, ports, protocol.bounding
                )
                choices = protocol.options(state, observation)
            else:
                letter = protocol.query_letter(state)
                raw = sum(1 for content in ports if content == letter)
                choices = protocol.options(state, protocol.bounding(raw))
            choices = protocol.validate_option_set(choices)
            if len(choices) == 1:
                chosen = choices[0]
            else:
                chosen = choices[counter_pick(round_key, node, len(choices))]
            self.tape[self._state_cell(node)] = chosen.state
            self.tape[self._pending_cell(node)] = (
                NO_EMISSION if is_epsilon(chosen.emit) else chosen.emit
            )

    def _second_sweep(self) -> None:
        """Sweep 2 of Lemma 6.1: deliver pending letters into neighbour ports."""
        for node in self._graph.nodes:
            pending = self.tape[self._pending_cell(node)]
            if pending == NO_EMISSION:
                continue
            for cell in self._reverse_port[node]:
                self.tape[cell] = pending
            self.tape[self._pending_cell(node)] = NO_EMISSION
            self._messages += 1

    def step_round(self) -> None:
        """Simulate one synchronous round (two tape sweeps)."""
        self._first_sweep()
        self._second_sweep()
        self._round += 1
        if len(self.tape) != self._initial_tape_length:
            raise ExecutionError("the simulation tape grew — linear space bound violated")

    def run(self, max_rounds: int = 100_000) -> ExecutionResult:
        """Run until an output configuration (or the round budget)."""
        while self._round < max_rounds and not self.in_output_configuration():
            self.step_round()
        reached = self.in_output_configuration()
        protocol = self._protocol
        final_states = self.states()
        outputs = {
            node: protocol.output_value(state)
            for node, state in enumerate(final_states)
            if protocol.is_output_state(state)
        }
        return ExecutionResult(
            protocol_name=f"{protocol.name}[linear-space-simulation]",
            graph=self._graph,
            reached_output=reached,
            final_states=final_states,
            outputs=outputs,
            rounds=self._round,
            total_node_steps=self._round * self._graph.num_nodes,
            total_messages=self._messages,
            seed=self._seed,
            metadata={"space_report": self.space_report()},
        )

    # ------------------------------------------------------------------ #
    # The Lemma 6.1 accounting                                            #
    # ------------------------------------------------------------------ #
    def space_report(self) -> SpaceReport:
        """Cell accounting backing the linear-space claim."""
        num_entries = sum(self._graph.degree(node) for node in self._graph.nodes)
        return SpaceReport(
            num_nodes=self._graph.num_nodes,
            num_adjacency_entries=num_entries,
            input_cells=self._graph.num_nodes + num_entries,
            state_cells=self._graph.num_nodes,
            pending_cells=self._graph.num_nodes,
            port_cells=num_entries,
        )


def simulate_with_linear_space(
    graph: Graph,
    protocol: ExtendedProtocol | Protocol,
    *,
    seed: int | None = None,
    inputs: Mapping[int, Any] | None = None,
    max_rounds: int = 100_000,
) -> ExecutionResult:
    """Convenience wrapper around :class:`LinearSpaceNetworkSimulator`."""
    simulator = LinearSpaceNetworkSimulator(graph, protocol, seed=seed, inputs=inputs)
    return simulator.run(max_rounds=max_rounds)
