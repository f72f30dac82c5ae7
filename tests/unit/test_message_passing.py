"""Unit tests for the LOCAL message-passing substrate and Luby's MIS."""

import pytest

from repro.baselines.luby import LubyMIS, luby_mis
from repro.baselines.message_passing import (
    MessagePassingAlgorithm,
    MessagePassingEngine,
    run_message_passing,
    _message_bits,
)
from repro.core.errors import ExecutionError, OutputNotReachedError
from repro.graphs import complete_graph, cycle_graph, empty_graph, gnp_random_graph, path_graph
from repro.verification import is_maximal_independent_set


class _EchoDistance(MessagePassingAlgorithm):
    """Every node outputs its hop distance from node 0 (BFS by flooding)."""

    name = "echo-distance"

    def initialize(self, node, degree, num_nodes, rng):
        return {"distance": 0 if node == 0 else None}

    def send(self, node, state, round_index):
        if state["distance"] is not None:
            return {None: state["distance"]}
        return {}

    def receive(self, node, state, inbox, round_index, rng):
        if state["distance"] is None and inbox:
            state["distance"] = min(inbox.values()) + 1
        # A node terminates one round after learning its distance so its
        # neighbours have had the chance to hear it.
        if state["distance"] is not None:
            if state.get("announced"):
                return state, state["distance"]
            state["announced"] = True
        return state, None


class _Misbehaving(MessagePassingAlgorithm):
    name = "misbehaving"

    def initialize(self, node, degree, num_nodes, rng):
        return {}

    def send(self, node, state, round_index):
        return {node + 5: "hello"}

    def receive(self, node, state, inbox, round_index, rng):
        return state, True


class TestEngine:
    def test_flooding_computes_bfs_distances(self):
        graph = path_graph(5)
        result = run_message_passing(graph, _EchoDistance(), seed=1)
        assert result.outputs == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_messages_to_non_neighbours_are_rejected(self):
        with pytest.raises(ExecutionError):
            run_message_passing(path_graph(3), _Misbehaving(), seed=1)

    def test_round_budget_raises_when_requested(self):
        class Forever(MessagePassingAlgorithm):
            name = "forever"

            def initialize(self, node, degree, num_nodes, rng):
                return {}

            def send(self, node, state, round_index):
                return {}

            def receive(self, node, state, inbox, round_index, rng):
                return state, None

        with pytest.raises(OutputNotReachedError):
            run_message_passing(path_graph(3), Forever(), max_rounds=5)

    def test_message_and_bit_accounting(self):
        graph = complete_graph(3)
        result = run_message_passing(graph, _EchoDistance(), seed=1)
        assert result.total_messages > 0
        assert result.total_message_bits > 0

    def test_empty_graph_terminates_immediately(self):
        result = run_message_passing(empty_graph(0), _EchoDistance(), seed=1)
        assert result.reached_output
        assert result.rounds == 0

    def test_engine_round_accessor(self):
        engine = MessagePassingEngine(path_graph(3), _EchoDistance(), seed=1)
        assert engine.round_index == 0
        engine.step_round()
        assert engine.round_index == 1


class TestMessageBits:
    @pytest.mark.parametrize("message, expected", [
        (None, 0),
        (True, 1),
        (5, 3),
        (0, 1),
        (1.5, 64),
        ("ab", 16),
        ((3, "a"), 2 + 8),
    ])
    def test_size_accounting(self, message, expected):
        assert _message_bits(message) == expected


class TestLuby:
    @pytest.mark.parametrize("seed", range(4))
    def test_luby_produces_a_maximal_independent_set(self, seed):
        graph = gnp_random_graph(60, 0.1, seed=seed)
        selected, result = luby_mis(graph, seed=seed)
        assert result.reached_output
        assert is_maximal_independent_set(graph, selected)

    def test_luby_at_n_512_produces_a_maximal_independent_set(self):
        graph = gnp_random_graph(512, 4.0 / 512, seed=10)
        selected, _ = luby_mis(graph, seed=12)
        assert is_maximal_independent_set(graph, selected)

    def test_luby_on_a_cycle(self):
        graph = cycle_graph(20)
        selected, _ = luby_mis(graph, seed=3)
        assert is_maximal_independent_set(graph, selected)

    def test_luby_round_complexity_is_logarithmic_in_practice(self):
        graph = gnp_random_graph(400, 0.02, seed=5)
        _, result = luby_mis(graph, seed=5)
        assert result.rounds <= 40  # 2 rounds per phase, O(log n) phases

    def test_luby_messages_carry_many_bits(self):
        graph = gnp_random_graph(100, 0.05, seed=6)
        _, result = luby_mis(graph, seed=6)
        assert result.total_message_bits / max(result.total_messages, 1) > 8

    def test_luby_algorithm_name(self):
        assert LubyMIS().name == "luby-mis"
