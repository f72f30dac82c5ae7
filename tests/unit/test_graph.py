"""Unit tests for the lightweight graph type."""

import pickle

import numpy as np
import pytest

from repro.core.errors import GraphError
from repro.graphs.graph import Graph


class TestConstruction:
    def test_simple_graph(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.neighbors(1) == (0, 2)

    def test_duplicate_edges_collapse(self):
        graph = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loops_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_empty_graph(self):
        graph = Graph(0, [])
        assert graph.num_nodes == 0
        assert list(graph.nodes) == []

    def test_edges_are_normalised_and_sorted(self):
        graph = Graph(3, [(2, 0), (1, 0)])
        assert graph.edges == ((0, 1), (0, 2))

    def test_from_edge_list_infers_node_count(self):
        graph = Graph.from_edge_list([(0, 4), (2, 3)])
        assert graph.num_nodes == 5


    def test_edge_array_builds_the_same_graph(self):
        pairs = [(2, 0), (1, 0), (0, 2)]
        graph = Graph(3, np.array(pairs, dtype=np.int64))
        assert graph == Graph(3, pairs)
        assert graph.edges == ((0, 1), (0, 2))

    def test_edges_that_are_not_pairs_are_rejected(self):
        with pytest.raises(GraphError, match="pairs"):
            Graph(3, np.zeros((2, 3), dtype=np.int64))

    def test_first_bad_edge_in_input_order_is_reported(self):
        with pytest.raises(GraphError, match=r"^edge \(0, 5\) references"):
            Graph(3, [(0, 1), (0, 5), (2, 2)])
        with pytest.raises(GraphError, match="^self loop on node 7 "):
            Graph(3, [(7, 7), (0, 5)])
        with pytest.raises(GraphError, match="references a node outside"):
            Graph(3, [(0, 2**70)])


class TestAccessors:
    def setup_method(self):
        self.graph = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])

    def test_degree(self):
        assert self.graph.degree(0) == 3
        assert self.graph.degree(4) == 1

    def test_max_degree(self):
        assert self.graph.max_degree() == 3

    def test_max_degree_of_empty_graph(self):
        assert Graph(0, []).max_degree() == 0

    def test_has_edge(self):
        assert self.graph.has_edge(0, 1)
        assert self.graph.has_edge(1, 0)
        assert not self.graph.has_edge(1, 2)
        assert not self.graph.has_edge(0, 0)
        assert not self.graph.has_edge(0, 99)

    def test_iteration_and_len(self):
        assert list(self.graph) == [0, 1, 2, 3, 4]
        assert len(self.graph) == 5

    def test_adjacency_matches_neighbors(self):
        adjacency = self.graph.adjacency()
        for node in self.graph.nodes:
            assert adjacency[node] == self.graph.neighbors(node)

    def test_equality_and_hash(self):
        twin = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert twin == self.graph
        assert hash(twin) == hash(self.graph)
        assert Graph(5, [(0, 1)]) != self.graph


    def test_csr_is_read_only_int64_storage(self):
        indptr, indices = self.graph.csr_adjacency()
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        assert indptr.tolist() == [0, 3, 4, 5, 7, 8]
        assert indices.tolist() == [1, 2, 3, 0, 0, 0, 4, 3]
        assert self.graph.csr_adjacency()[1] is indices
        with pytest.raises(ValueError):
            indices[0] = 4

    def test_pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(self.graph))
        assert clone == self.graph
        assert not clone.csr_adjacency()[1].flags.writeable


class TestDerivedGraphs:
    def test_subgraph_relabels_nodes(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        induced = graph.subgraph([1, 2, 4])
        assert induced.num_nodes == 3
        assert induced.edges == ((0, 1),)  # the 1-2 edge survives as 0-1

    def test_subgraph_rejects_foreign_nodes(self):
        with pytest.raises(GraphError):
            Graph(3, []).subgraph([5])

    def test_line_graph_of_a_path(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        line, edge_of_node = path.line_graph()
        assert line.num_nodes == 3
        assert line.num_edges == 2
        assert edge_of_node == ((0, 1), (1, 2), (2, 3))

    def test_line_graph_of_a_star(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        line, _ = star.line_graph()
        # All star edges share the centre, so the line graph is a triangle.
        assert line.num_edges == 3

    def test_line_graph_of_edgeless_graph(self):
        line, edge_of_node = Graph(3, []).line_graph()
        assert line.num_nodes == 0
        assert edge_of_node == ()

    def test_with_edges_adds_without_mutating(self):
        graph = Graph(3, [(0, 1)])
        extended = graph.with_edges([(1, 2)])
        assert graph.num_edges == 1
        assert extended.num_edges == 2


class TestNetworkxInterop:
    def test_roundtrip(self):
        networkx = pytest.importorskip("networkx")
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        nx_graph = graph.to_networkx()
        assert networkx.is_connected(nx_graph)
        back, labels = Graph.from_networkx(nx_graph)
        assert back == graph
        assert set(labels.values()) == set(range(4))
