"""End-to-end tests of the Stone Age tree 3-coloring protocol (Theorem 5.4)."""

import math

import pytest

from repro.api import Simulation
from repro.graphs import (
    Graph,
    binary_tree,
    caterpillar_graph,
    empty_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.verification import assert_proper_coloring

TREE_ZOO = [
    ("single-node", lambda: Graph(1, [])),
    ("single-edge", lambda: path_graph(2)),
    ("path-40", lambda: path_graph(40)),
    ("star-50", lambda: star_graph(50)),
    ("binary-tree-127", lambda: binary_tree(127)),
    ("caterpillar-12x3", lambda: caterpillar_graph(12, 3)),
    ("random-tree-100", lambda: random_tree(100, seed=4)),
    ("random-tree-333", lambda: random_tree(333, seed=5)),
    ("broom", lambda: Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (3, 7)])),
]


class TestCorrectness:
    @pytest.mark.parametrize("name, builder", TREE_ZOO, ids=[n for n, _ in TREE_ZOO])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_produces_a_proper_3_coloring(self, name, builder, seed):
        tree = builder()
        result = Simulation().run_protocol(
            tree, TreeColoringProtocol(), seed=seed, max_rounds=20_000, backend="python"
        )
        assert result.reached_output
        assert_proper_coloring(tree, coloring_from_result(result), max_colors=3)

    def test_forest_input_colors_every_component(self):
        forest = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        result = Simulation().run_protocol(
            forest, TreeColoringProtocol(), seed=2, max_rounds=20_000, backend="python"
        )
        assert_proper_coloring(forest, coloring_from_result(result), max_colors=3)

    def test_isolated_nodes_color_themselves(self):
        result = Simulation().run_protocol(
            empty_graph(5), TreeColoringProtocol(), seed=3, backend="python"
        )
        colors = coloring_from_result(result)
        assert set(colors) == set(range(5))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_many_seeds(self, seed):
        tree = random_tree(150, seed=100 + seed)
        result = Simulation().run_protocol(
            tree, TreeColoringProtocol(), seed=seed, max_rounds=20_000, backend="python"
        )
        assert_proper_coloring(tree, coloring_from_result(result), max_colors=3)


class TestScalingShape:
    def test_rounds_grow_logarithmically_on_random_trees(self):
        sizes = [128, 256, 512, 1024]
        rounds = []
        for size in sizes:
            per_seed = [
                Simulation().run_protocol(
                    random_tree(size, seed=size + seed),
                    TreeColoringProtocol(),
                    seed=seed,
                    max_rounds=20_000,
                    backend="python",
                ).rounds
                for seed in range(2)
            ]
            rounds.append(sum(per_seed) / len(per_seed))
        assert rounds[-1] / rounds[-2] < 1.6
        assert rounds[-1] <= 20 * math.log2(sizes[-1])

    def test_star_is_colored_in_constantly_many_phases(self):
        result = Simulation().run_protocol(
            star_graph(500), TreeColoringProtocol(), seed=1, max_rounds=20_000, backend="python"
        )
        assert result.rounds <= 40

    def test_path_coloring_is_fast(self):
        result = Simulation().run_protocol(
            path_graph(800), TreeColoringProtocol(), seed=2, max_rounds=20_000, backend="python"
        )
        assert result.rounds <= 200
