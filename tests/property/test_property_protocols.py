"""Property-based tests of the paper's protocols on random instances.

These are the strongest correctness checks in the suite: hypothesis generates
arbitrary graphs (for MIS) and arbitrary trees (for coloring), arbitrary
seeds, and the invariants of Sections 4 and 5 must hold on every single run.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Simulation
from repro.graphs.generators import tree_from_pruefer
from repro.graphs.graph import Graph
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.protocols.matching import maximal_matching_via_line_graph
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.verification import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_graphs(draw, max_nodes=14):
    n = draw(st.integers(1, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def random_trees(draw, max_nodes=20):
    n = draw(st.integers(1, max_nodes))
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [])
    pruefer = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_pruefer(pruefer)


@st.composite
def random_forests(draw, max_nodes=18):
    """A forest obtained by deleting a few edges of a random tree."""
    tree = draw(random_trees(max_nodes=max_nodes))
    if tree.num_edges == 0:
        return tree
    keep_mask = draw(
        st.lists(st.booleans(), min_size=tree.num_edges, max_size=tree.num_edges)
    )
    kept = [edge for edge, keep in zip(tree.edges, keep_mask) if keep]
    return Graph(tree.num_nodes, kept)


class TestMISInvariants:
    @given(graph=random_graphs(), seed=st.integers(0, 10_000))
    @SLOW
    def test_output_is_always_a_maximal_independent_set(self, graph, seed):
        result = Simulation().run_protocol(
            graph, MISProtocol(), seed=seed, max_rounds=50_000, backend="python"
        )
        assert result.reached_output
        assert is_maximal_independent_set(graph, mis_from_result(result))

    @given(graph=random_graphs(), seed=st.integers(0, 10_000))
    @SLOW
    def test_every_node_produces_a_boolean_output(self, graph, seed):
        result = Simulation().run_protocol(
            graph, MISProtocol(), seed=seed, max_rounds=50_000, backend="python"
        )
        assert set(result.outputs) == set(graph.nodes)
        assert all(isinstance(value, bool) for value in result.outputs.values())


class TestColoringInvariants:
    @given(tree=random_trees(), seed=st.integers(0, 10_000))
    @SLOW
    def test_trees_get_a_proper_3_coloring(self, tree, seed):
        result = Simulation().run_protocol(
            tree, TreeColoringProtocol(), seed=seed, max_rounds=50_000, backend="python"
        )
        assert result.reached_output
        colors = coloring_from_result(result)
        assert is_proper_coloring(tree, colors)
        assert set(colors.values()) <= {1, 2, 3}

    @given(forest=random_forests(), seed=st.integers(0, 10_000))
    @SLOW
    def test_forests_get_a_proper_3_coloring(self, forest, seed):
        result = Simulation().run_protocol(
            forest, TreeColoringProtocol(), seed=seed, max_rounds=50_000, backend="python"
        )
        assert result.reached_output
        assert is_proper_coloring(forest, coloring_from_result(result))


class TestMatchingInvariants:
    @given(graph=random_graphs(max_nodes=10), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_line_graph_reduction_yields_a_maximal_matching(self, graph, seed):
        matching, _ = maximal_matching_via_line_graph(graph, seed=seed)
        assert is_maximal_matching(graph, matching)
