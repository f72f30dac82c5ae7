"""End-to-end tests of the Stone Age MIS protocol (Theorem 4.5)."""

import math

import pytest

from repro.api import Simulation
from repro.graphs import (
    binary_tree,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    random_tree,
    star_graph,
)
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.verification import assert_maximal_independent_set


GRAPH_ZOO = [
    ("path-25", lambda: path_graph(25)),
    ("cycle-24", lambda: cycle_graph(24)),
    ("cycle-25", lambda: cycle_graph(25)),
    ("star-30", lambda: star_graph(30)),
    ("clique-12", lambda: complete_graph(12)),
    ("bipartite-8x9", lambda: complete_bipartite_graph(8, 9)),
    ("grid-6x6", lambda: grid_graph(6, 6)),
    ("binary-tree-63", lambda: binary_tree(63)),
    ("random-tree-80", lambda: random_tree(80, seed=1)),
    ("gnp-sparse-100", lambda: gnp_random_graph(100, 0.03, seed=2)),
    ("gnp-dense-40", lambda: gnp_random_graph(40, 0.4, seed=3)),
    ("regular-30x4", lambda: random_regular_graph(30, 4, seed=4)),
    ("isolated-10", lambda: empty_graph(10)),
]


class TestCorrectness:
    @pytest.mark.parametrize("name, builder", GRAPH_ZOO, ids=[n for n, _ in GRAPH_ZOO])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_always_produces_a_maximal_independent_set(self, name, builder, seed):
        graph = builder()
        result = Simulation().run_protocol(graph, MISProtocol(), seed=seed, backend="python")
        assert result.reached_output
        assert_maximal_independent_set(graph, mis_from_result(result))

    def test_isolated_nodes_always_win(self):
        graph = empty_graph(7)
        result = Simulation().run_protocol(graph, MISProtocol(), seed=3, backend="python")
        assert mis_from_result(result) == set(graph.nodes)

    def test_clique_has_exactly_one_winner(self):
        result = Simulation().run_protocol(
            complete_graph(15), MISProtocol(), seed=5, backend="python"
        )
        assert len(mis_from_result(result)) == 1

    def test_star_center_or_all_leaves(self):
        graph = star_graph(20)
        result = Simulation().run_protocol(graph, MISProtocol(), seed=7, backend="python")
        winners = mis_from_result(result)
        assert winners == {0} or winners == set(range(1, 21))

    def test_complete_bipartite_selects_one_side(self):
        graph = complete_bipartite_graph(6, 9)
        result = Simulation().run_protocol(graph, MISProtocol(), seed=9, backend="python")
        winners = mis_from_result(result)
        assert winners == set(range(6)) or winners == set(range(6, 15))


class TestScalingShape:
    def test_rounds_grow_polylogarithmically(self):
        """Doubling n should multiply the round count by far less than 2."""
        sizes = [64, 128, 256, 512]
        rounds = []
        for size in sizes:
            graph = gnp_random_graph(size, 4.0 / size, seed=size)
            per_seed = [
                Simulation().run_protocol(graph, MISProtocol(), seed=seed, backend="python").rounds
                for seed in range(3)
            ]
            rounds.append(sum(per_seed) / len(per_seed))
        ratio_large = rounds[-1] / rounds[-2]
        assert ratio_large < 1.7
        # And the absolute values stay within a small multiple of log^2 n.
        assert rounds[-1] <= 6 * math.log2(sizes[-1]) ** 2

    def test_runs_are_fast_even_on_a_long_cycle(self):
        result = Simulation().run_protocol(
            cycle_graph(1000), MISProtocol(), seed=11, backend="python"
        )
        assert result.rounds <= 150
