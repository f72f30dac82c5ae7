"""Unit tests for structural graph properties."""

import pytest

from repro.core.errors import GraphError
from repro.graphs import (
    Graph,
    bfs_distances,
    binary_tree,
    complete_graph,
    connected_components,
    count_edges_in_subset,
    cycle_graph,
    degree_histogram,
    diameter,
    eccentricity,
    empty_graph,
    good_nodes_mis,
    good_nodes_tree,
    grid_graph,
    is_connected,
    is_forest,
    is_tree,
    path_graph,
    random_tree,
    star_graph,
)


class TestConnectivity:
    def test_connected_components_of_disjoint_edges(self):
        graph = Graph(6, [(0, 1), (2, 3)])
        assert connected_components(graph) == [[0, 1], [2, 3], [4], [5]]

    def test_is_connected_on_standard_graphs(self):
        assert is_connected(path_graph(10))
        assert is_connected(complete_graph(4))
        assert not is_connected(empty_graph(3))
        assert is_connected(empty_graph(1))
        assert is_connected(Graph(0, []))

    def test_forest_and_tree_predicates(self):
        assert is_tree(path_graph(5))
        assert is_forest(Graph(4, [(0, 1), (2, 3)]))
        assert not is_tree(Graph(4, [(0, 1), (2, 3)]))
        assert not is_forest(cycle_graph(4))
        assert not is_tree(cycle_graph(4))


class TestDistances:
    def test_bfs_distances_on_a_path(self):
        distances = bfs_distances(path_graph(5), 0)
        assert distances == [0, 1, 2, 3, 4]

    def test_bfs_unreachable_is_none(self):
        distances = bfs_distances(Graph(3, [(0, 1)]), 0)
        assert distances[2] is None

    def test_bfs_rejects_foreign_source(self):
        with pytest.raises(GraphError):
            bfs_distances(path_graph(3), 9)

    def test_eccentricity_and_diameter(self):
        assert eccentricity(path_graph(5), 0) == 4
        assert eccentricity(path_graph(5), 2) == 2
        assert diameter(path_graph(5)) == 4
        assert diameter(star_graph(6)) == 2
        assert diameter(complete_graph(5)) == 1
        assert diameter(Graph(0, [])) == 0

    def test_diameter_of_grid(self):
        assert diameter(grid_graph(3, 3)) == 4


class TestHistogramsAndSubsets:
    def test_degree_histogram(self):
        histogram = degree_histogram(star_graph(4))
        assert histogram == {4: 1, 1: 4}

    def test_count_edges_in_subset(self):
        graph = cycle_graph(6)
        assert count_edges_in_subset(graph, [0, 1, 2]) == 2
        assert count_edges_in_subset(graph, graph.nodes) == 6
        assert count_edges_in_subset(graph, []) == 0


class TestGoodNodes:
    def test_good_nodes_mis_on_a_star(self):
        # Leaves have their single neighbour (the centre) with a larger
        # degree, so only the centre satisfies the "third of the neighbours"
        # condition... in fact all leaves have degree 1 <= centre degree,
        # making the centre good, while each leaf's single neighbour has a
        # strictly larger degree.
        star = star_graph(6)
        good = good_nodes_mis(star)
        assert 0 in good
        assert all(leaf not in good for leaf in range(1, 7))

    def test_good_nodes_mis_regular_graph_everything_good(self):
        cycle = cycle_graph(8)
        assert good_nodes_mis(cycle) == list(cycle.nodes)

    def test_good_nodes_mis_respects_subset(self):
        star = star_graph(4)
        # Restricting to the leaves makes all of them isolated (degree 0),
        # and isolated nodes are skipped by the definition.
        assert good_nodes_mis(star, subset=range(1, 5)) == []

    def test_good_nodes_tree_fraction_bound(self):
        # Observation 5.2: at least a fifth of the nodes of any tree are good.
        for seed in range(5):
            tree = random_tree(60, seed=seed)
            good = good_nodes_tree(tree)
            assert len(good) >= tree.num_nodes / 5

    def test_good_nodes_tree_fraction_bound_at_n_2048(self):
        tree = random_tree(2048, seed=9)
        assert len(good_nodes_tree(tree)) >= tree.num_nodes / 5

    def test_good_nodes_tree_on_a_path(self):
        path = path_graph(6)
        assert good_nodes_tree(path) == list(path.nodes)

    def test_good_nodes_tree_on_binary_tree_leaves(self):
        tree = binary_tree(15)
        good = set(good_nodes_tree(tree))
        leaves = {v for v in tree.nodes if tree.degree(v) == 1}
        assert leaves <= good

    def test_good_nodes_tree_subset_uses_induced_degrees(self):
        star = star_graph(5)
        # Without the centre every leaf is isolated, hence good.
        assert good_nodes_tree(star, subset=range(1, 6)) == list(range(1, 6))
