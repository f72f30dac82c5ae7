"""A classical synchronous message-passing (LOCAL/CONGEST) substrate.

The related-work baselines of the paper (Luby's MIS, Cole–Vishkin coloring)
live in the standard message passing model: in every round a node may send a
*different, arbitrarily large* message to each neighbour, receive the
messages addressed to it, and perform unbounded local computation.  This is
exactly the power the nFSM model strips away, so having both substrates side
by side lets the experiments quantify what the Stone Age restrictions cost
(experiments E10 and E11; ``repro experiment E10`` prints one).

The engine is deliberately simple: an algorithm is an object with three
callbacks (``initialize`` / ``send`` / ``receive``); the engine drives
synchronous rounds until every node has declared an output.  Message size
accounting (in bits) is reported so the congest-style comparison of
experiment E11 can contrast it with the O(1)-bit letters of the nFSM model.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ExecutionError, OutputNotReachedError
from repro.graphs.graph import Graph


class MessagePassingAlgorithm(ABC):
    """Callbacks describing one node's behaviour in the LOCAL model.

    The same algorithm object is shared by all nodes (the model is uniform);
    all per-node information lives in the state objects returned by
    :meth:`initialize` and threaded through the callbacks.
    """

    name: str = "message-passing-algorithm"

    @abstractmethod
    def initialize(self, node: int, degree: int, num_nodes: int, rng: random.Random) -> Any:
        """Create the initial local state of *node*.

        Unlike the nFSM model, LOCAL algorithms may use the node identifier
        and the network size — that is part of what the comparison measures.
        """

    @abstractmethod
    def send(self, node: int, state: Any, round_index: int) -> dict[int, Any]:
        """Messages to transmit this round, keyed by neighbour identifier.

        Return an empty dict to stay silent.  The special key ``None`` sends
        the same message to every neighbour (broadcast convenience).
        """

    @abstractmethod
    def receive(
        self,
        node: int,
        state: Any,
        inbox: dict[int, Any],
        round_index: int,
        rng: random.Random,
    ) -> tuple[Any, Any | None]:
        """Process the received messages.

        Returns ``(new_state, output)`` where ``output`` is ``None`` while
        the node is still undecided and any other value once it terminates.
        """


@dataclass
class MessagePassingResult:
    """Outcome of a LOCAL-model execution."""

    algorithm: str
    graph: Graph
    rounds: int
    outputs: dict[int, Any]
    reached_output: bool
    total_messages: int = 0
    total_message_bits: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)


def _message_bits(message: Any) -> int:
    """Crude but consistent size accounting for comparison purposes."""
    if message is None:
        return 0
    if isinstance(message, bool):
        return 1
    if isinstance(message, int):
        return max(message.bit_length(), 1)
    if isinstance(message, float):
        return 64
    if isinstance(message, str):
        return 8 * len(message)
    if isinstance(message, (tuple, list)):
        return sum(_message_bits(item) for item in message)
    if isinstance(message, dict):
        return sum(_message_bits(k) + _message_bits(v) for k, v in message.items())
    return 8 * len(repr(message))


class MessagePassingEngine:
    """Synchronous executor for :class:`MessagePassingAlgorithm` instances."""

    def __init__(
        self,
        graph: Graph,
        algorithm: MessagePassingAlgorithm,
        *,
        seed: int | None = None,
    ) -> None:
        self._graph = graph
        self._algorithm = algorithm
        self._rng = random.Random(seed)
        self._states: list[Any] = [
            algorithm.initialize(node, graph.degree(node), graph.num_nodes, self._rng)
            for node in graph.nodes
        ]
        self._outputs: dict[int, Any] = {}
        self._round = 0
        self._messages = 0
        self._message_bits = 0

    @property
    def round_index(self) -> int:
        return self._round

    def done(self) -> bool:
        return len(self._outputs) == self._graph.num_nodes

    def step_round(self) -> None:
        graph, algorithm = self._graph, self._algorithm
        outboxes: list[dict[int, Any]] = []
        for node in graph.nodes:
            if node in self._outputs:
                outboxes.append({})
                continue
            outbox = algorithm.send(node, self._states[node], self._round)
            if None in outbox:
                broadcast = outbox.pop(None)
                for neighbour in graph.neighbors(node):
                    outbox.setdefault(neighbour, broadcast)
            for target in outbox:
                if not graph.has_edge(node, target):
                    raise ExecutionError(
                        f"node {node} attempted to message non-neighbour {target}"
                    )
            outboxes.append(outbox)

        inboxes: list[dict[int, Any]] = [dict() for _ in graph.nodes]
        for node in graph.nodes:
            for target, message in outboxes[node].items():
                inboxes[target][node] = message
                self._messages += 1
                self._message_bits += _message_bits(message)

        for node in graph.nodes:
            if node in self._outputs:
                continue
            new_state, output = algorithm.receive(
                node, self._states[node], inboxes[node], self._round, self._rng
            )
            self._states[node] = new_state
            if output is not None:
                self._outputs[node] = output
        self._round += 1

    def run(self, max_rounds: int = 100_000, *, raise_on_timeout: bool = True) -> MessagePassingResult:
        while not self.done() and self._round < max_rounds:
            self.step_round()
        result = MessagePassingResult(
            algorithm=self._algorithm.name,
            graph=self._graph,
            rounds=self._round,
            outputs=dict(self._outputs),
            reached_output=self.done(),
            total_messages=self._messages,
            total_message_bits=self._message_bits,
            metadata={
                "max_message_bits": math.ceil(self._message_bits / max(self._messages, 1)),
            },
        )
        if not result.reached_output and raise_on_timeout:
            raise OutputNotReachedError(
                f"{self._algorithm.name} did not terminate within {max_rounds} rounds",
                result,
            )
        return result


def run_message_passing(
    graph: Graph,
    algorithm: MessagePassingAlgorithm,
    *,
    seed: int | None = None,
    max_rounds: int = 100_000,
) -> MessagePassingResult:
    """Convenience wrapper: build an engine and run it to completion."""
    return MessagePassingEngine(graph, algorithm, seed=seed).run(max_rounds=max_rounds)
