"""Trace analysis of the MIS protocol's tournaments (paper Section 4).

The run-time proof of Theorem 4.5 rests on two structural facts about the
MIS protocol's executions:

* the length (in turns) of every tournament is distributed as
  ``2 + Geom(1/2)`` independently across nodes and tournaments
  (Observation 4.2's engine); and
* the virtual graph ``G^i`` induced by the nodes that reach tournament ``i``
  loses a constant fraction of its edges per tournament in expectation
  (Lemma 4.3: ``E[|E^{i+1}|] < (35/36)·|E^i|``).

This module recovers both quantities from a round-by-round state trace of a
synchronous MIS execution (captured with the engine's ``observer`` hook), so
experiments E7 and E8 can measure them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.budgets import DEFAULT_MAX_ROUNDS
from repro.graphs.graph import Graph
from repro.protocols.mis import ACTIVE_STATES, DOWN1, MISProtocol
from repro.scheduling.sync_engine import SynchronousEngine


@dataclass(frozen=True)
class Turn:
    """One maximal run of rounds a node spends in the same active state."""

    state: str
    first_round: int
    last_round: int

    @property
    def length(self) -> int:
        return self.last_round - self.first_round + 1


@dataclass(frozen=True)
class Tournament:
    """One iteration of a node's outer DOWN/UP loop."""

    index: int
    turns: tuple[Turn, ...]

    @property
    def num_turns(self) -> int:
        return len(self.turns)

    @property
    def num_rounds(self) -> int:
        return sum(turn.length for turn in self.turns)


@dataclass
class MISTrace:
    """Round-by-round state history of one MIS execution."""

    graph: Graph
    history: list[tuple[str, ...]]

    def states_of(self, node: int) -> list[str]:
        """The state of *node* at the end of every round (round 1, 2, ...)."""
        return [snapshot[node] for snapshot in self.history]

    # ------------------------------------------------------------------ #
    # Turns and tournaments                                               #
    # ------------------------------------------------------------------ #
    def turns_of(self, node: int) -> list[Turn]:
        """All turns of *node*, in order (output states are not turns)."""
        turns: list[Turn] = []
        states = self.states_of(node)
        current_state: str | None = None
        start = 0
        for round_index, state in enumerate(states, start=1):
            if state not in ACTIVE_STATES:
                break
            if state != current_state:
                if current_state is not None:
                    turns.append(Turn(current_state, start, round_index - 1))
                current_state = state
                start = round_index
        else:
            round_index = len(states)
            if current_state is not None:
                turns.append(Turn(current_state, start, round_index))
            return turns
        if current_state is not None:
            turns.append(Turn(current_state, start, round_index - 1))
        return turns

    def tournaments_of(self, node: int) -> list[Tournament]:
        """Group the node's turns into tournaments (each starts at DOWN1)."""
        turns = self.turns_of(node)
        tournaments: list[Tournament] = []
        current: list[Turn] = []
        for turn in turns:
            if turn.state == DOWN1 and current:
                tournaments.append(Tournament(len(tournaments) + 1, tuple(current)))
                current = []
            current.append(turn)
        if current:
            tournaments.append(Tournament(len(tournaments) + 1, tuple(current)))
        return tournaments

    def tournament_lengths(self) -> list[int]:
        """Lengths (in turns) of all completed tournaments of all nodes.

        Following the paper's convention, the last tournament of a node that
        ends by entering an output state is extended by one virtual turn (the
        missing DOWN2 turn), so that all lengths are comparable with the
        ``2 + Geom(1/2)`` distribution.
        """
        lengths = []
        for node in self.graph.nodes:
            tournaments = self.tournaments_of(node)
            for position, tournament in enumerate(tournaments):
                is_last = position == len(tournaments) - 1
                lengths.append(tournament.num_turns + (1 if is_last else 0))
        return lengths

    # ------------------------------------------------------------------ #
    # Virtual graphs G^i and edge decay                                    #
    # ------------------------------------------------------------------ #
    def nodes_reaching_tournament(self, index: int) -> set[int]:
        """The node set V^i of the virtual graph G^i (1-based index)."""
        return {
            node
            for node in self.graph.nodes
            if len(self.tournaments_of(node)) >= index
        }

    def edge_decay(self) -> list[int]:
        """``[|E^1|, |E^2|, ...]`` until the virtual graph runs out of edges.

        The list always ends with that first edgeless ``|E^i| = 0`` — also
        when no node reaches tournament ``i`` at all (the last competing
        neighbours finished in the same tournament).
        """
        sizes: list[int] = []
        index = 1
        while True:
            nodes = self.nodes_reaching_tournament(index)
            edges = sum(1 for u, v in self.graph.edges if u in nodes and v in nodes)
            sizes.append(edges)
            if edges == 0:
                break
            index += 1
        return sizes

    def decay_factors(self) -> list[float]:
        """Per-tournament ratios ``|E^{i+1}| / |E^i|`` (Lemma 4.3 measurements)."""
        sizes = self.edge_decay()
        return [
            later / earlier
            for earlier, later in zip(sizes, sizes[1:])
            if earlier > 0
        ]


def trace_mis_execution(
    graph: Graph, *, seed: int | None = None, max_rounds: int = DEFAULT_MAX_ROUNDS
) -> tuple[MISTrace, "SynchronousEngine"]:
    """Run the MIS protocol capturing the full state history.

    Returns the trace and the engine (whose result can be rebuilt with
    ``engine.run(...)`` — by the time this function returns the execution has
    already reached an output configuration or the round budget).
    """
    history: list[tuple[str, ...]] = []

    def observer(_round_index: int, states: tuple[str, ...]) -> None:
        history.append(states)

    engine = SynchronousEngine(graph, MISProtocol(), seed=seed, observer=observer)
    # Record the initial configuration (every node in DOWN1) so the first
    # DOWN1 turn of tournament 1 is part of the trace.
    history.append(engine.states)
    engine.run(max_rounds=max_rounds, raise_on_timeout=False)
    return MISTrace(graph=graph, history=history), engine
