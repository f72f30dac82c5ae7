"""Unit tests for the graph generators."""

import random
import sys
import threading

import pytest

from repro.core.errors import GraphError
from repro.graphs import (
    GRAPH_FAMILIES,
    binary_tree,
    caterpillar_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    grid_graph,
    is_connected,
    is_tree,
    path_graph,
    random_bipartite_graph,
    random_connected_gnp,
    random_regular_graph,
    random_tree,
    star_graph,
    tree_from_pruefer,
)
from repro.graphs.generators import random_geometric_graph


class TestDeterministicFamilies:
    def test_empty_graph(self):
        graph = empty_graph(5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 0

    def test_complete_graph_edge_count(self):
        assert complete_graph(6).num_edges == 15

    def test_path_graph_structure(self):
        path = path_graph(5)
        assert path.num_edges == 4
        assert path.degree(0) == 1
        assert path.degree(2) == 2
        assert is_tree(path)

    def test_single_node_path(self):
        assert path_graph(1).num_edges == 0

    def test_cycle_graph_is_2_regular(self):
        cycle = cycle_graph(7)
        assert all(cycle.degree(v) == 2 for v in cycle.nodes)
        assert cycle.num_edges == 7

    def test_cycle_needs_three_nodes(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_graph_degrees(self):
        star = star_graph(9)
        assert star.degree(0) == 9
        assert all(star.degree(v) == 1 for v in range(1, 10))

    def test_complete_bipartite(self):
        graph = complete_bipartite_graph(3, 4)
        assert graph.num_nodes == 7
        assert graph.num_edges == 12

    def test_grid_graph(self):
        grid = grid_graph(3, 4)
        assert grid.num_nodes == 12
        assert grid.num_edges == 3 * 3 + 2 * 4
        assert is_connected(grid)

    def test_binary_tree_is_a_tree(self):
        tree = binary_tree(15)
        assert is_tree(tree)
        assert tree.max_degree() == 3

    def test_caterpillar_is_a_tree(self):
        caterpillar = caterpillar_graph(5, 2)
        assert caterpillar.num_nodes == 5 + 10
        assert is_tree(caterpillar)


class TestRandomFamilies:
    def test_gnp_probability_bounds_checked(self):
        with pytest.raises(GraphError):
            gnp_random_graph(5, 1.5)

    def test_gnp_extremes(self):
        assert gnp_random_graph(6, 0.0, seed=1).num_edges == 0
        assert gnp_random_graph(6, 1.0, seed=1).num_edges == 15

    def test_gnp_is_seed_deterministic(self):
        assert gnp_random_graph(30, 0.2, seed=5) == gnp_random_graph(30, 0.2, seed=5)
        assert gnp_random_graph(30, 0.2, seed=5) != gnp_random_graph(30, 0.2, seed=6)

    def test_gnp_accepts_random_instance(self):
        rng = random.Random(3)
        graph = gnp_random_graph(10, 0.3, rng)
        assert graph.num_nodes == 10

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57])
    def test_random_tree_is_a_tree(self, n):
        assert is_tree(random_tree(n, seed=n))

    def test_random_tree_rejects_zero_nodes(self):
        with pytest.raises(GraphError):
            random_tree(0)

    def test_random_tree_is_seed_deterministic(self):
        assert random_tree(40, seed=9) == random_tree(40, seed=9)

    def test_tree_from_pruefer_known_sequence(self):
        # Prüfer sequence (3, 3, 3, 4) encodes a specific 6-node tree.
        tree = tree_from_pruefer([3, 3, 3, 4])
        assert is_tree(tree)
        assert tree.degree(3) == 4

    def test_tree_from_pruefer_rejects_bad_entries(self):
        with pytest.raises(GraphError):
            tree_from_pruefer([7])

    def test_random_bipartite_has_no_intra_side_edges(self):
        graph = random_bipartite_graph(5, 6, 0.5, seed=2)
        for u, v in graph.edges:
            assert (u < 5) != (v < 5)

    def test_random_regular_graph_degrees(self):
        graph = random_regular_graph(12, 3, seed=4)
        assert all(graph.degree(v) == 3 for v in graph.nodes)

    def test_random_regular_parity_check(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 3)

    def test_random_regular_degree_bound(self):
        with pytest.raises(GraphError):
            random_regular_graph(4, 4)

    def test_random_connected_gnp_is_connected(self):
        graph = random_connected_gnp(40, 0.02, seed=11)
        assert is_connected(graph)


class TestConcurrentDraws:
    @staticmethod
    def _build(seed):
        """Every array-drawn family at small n, plus the caller's final state."""
        rng = random.Random(seed)
        graphs = [
            random_tree(33, seed=seed),
            gnp_random_graph(40, 0.1, seed=seed),
            random_bipartite_graph(12, 15, 0.3, seed=rng),
            random_geometric_graph(30, seed=rng),
        ]
        return [graph.edges for graph in graphs], rng.getstate()

    def test_concurrent_builds_match_serial_builds(self):
        """Each thread draws from its own Mersenne Twister, so graphs built
        from four threads at once equal the same graphs built one by one."""
        threads = 4
        seeds = [list(range(thread, 160, threads)) for thread in range(threads)]
        serial = [[self._build(seed) for seed in part] for part in seeds]
        built = [None] * threads
        start = threading.Barrier(threads, timeout=60)

        def worker(thread):
            start.wait()
            built[thread] = [self._build(seed) for seed in seeds[thread]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between draws
        try:
            workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert built == serial


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(GRAPH_FAMILIES))
    def test_every_registered_family_builds(self, name):
        graph = GRAPH_FAMILIES[name](16, 3)
        assert graph.num_nodes >= 1
