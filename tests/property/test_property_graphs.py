"""Property-based tests for the array-built graphs and generators (hypothesis).

The graph layer builds :class:`~repro.graphs.graph.Graph` from edge arrays
and draws the random families as arrays from the caller's Mersenne Twister
state.  The scalar code it replaced lives on here as the reference: the
set-based graph build, the ``Random.random()`` pair and point loops, and
``randrange`` draws followed by the heap Prüfer decode.  Every property
asks for the same edges and the same CSR arrays as the reference, and, when
the caller passes a :class:`random.Random`, the same generator state
afterwards.  A CPython change to how ``random()`` or ``randrange()`` draw
from the twister would show here first.
"""

import heapq
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphError
from repro.graphs.generators import (
    gnp_random_graph,
    random_bipartite_graph,
    random_connected_gnp,
    random_geometric_graph,
    random_tree,
    tree_from_pruefer,
)
from repro.graphs.graph import Graph

seeds = st.integers(min_value=0, max_value=2**64)
probabilities = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


# ---------------------------------------------------------------------- #
# The scalar references                                                  #
# ---------------------------------------------------------------------- #
def set_build(num_nodes, pairs):
    """The set-based graph build: ``(edges, adjacency)``, or GraphError."""
    neighbour_sets = [set() for _ in range(num_nodes)]
    edge_set = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self loop on node {u} is not allowed")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise GraphError(f"edge ({u}, {v}) references a node outside 0..{num_nodes - 1}")
        if u > v:
            u, v = v, u
        edge_set.add((u, v))
        neighbour_sets[u].add(v)
        neighbour_sets[v].add(u)
    adjacency = tuple(tuple(sorted(neighbours)) for neighbours in neighbour_sets)
    return tuple(sorted(edge_set)), adjacency


def loop_pairs(rows, cols, probability, rng, *, upper):
    """The ``Random.random()`` pair loop of G(n, p) (upper) or bipartite."""
    return [
        (u, v)
        for u in range(rows)
        for v in (range(u + 1, cols) if upper else range(cols))
        if rng.random() < probability
    ]


def loop_geometric(num_nodes, radius, rng):
    """The point loop of the random geometric graph."""
    points = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    limit = radius * radius
    return [
        (u, v)
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
        if (points[u][0] - points[v][0]) ** 2 + (points[u][1] - points[v][1]) ** 2
        <= limit
    ]


def heap_pruefer_edges(pruefer):
    """The heap Prüfer decode: pop the smallest leaf for every entry."""
    num_nodes = len(pruefer) + 2
    degree = [1] * num_nodes
    for value in pruefer:
        degree[value] += 1
    leaves = [node for node in range(num_nodes) if degree[node] == 1]
    heapq.heapify(leaves)
    edges = []
    for value in pruefer:
        edges.append((heapq.heappop(leaves), value))
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def loop_tree(num_nodes, rng):
    """``randrange`` draws, then the heap decode."""
    if num_nodes <= 2:
        return [(0, 1)] if num_nodes == 2 else []
    return heap_pruefer_edges([rng.randrange(num_nodes) for _ in range(num_nodes - 2)])


def assert_matches_reference(graph, num_nodes, pairs):
    edges, adjacency = set_build(num_nodes, pairs)
    assert graph.num_nodes == num_nodes
    assert graph.edges == edges
    indptr, indices = graph.csr_adjacency()
    assert indptr.tolist() == np.cumsum([0] + [len(a) for a in adjacency]).tolist()
    assert indices.tolist() == [v for neighbours in adjacency for v in neighbours]


def generator_source(seed, use_rng):
    """The seed to hand a generator and its reference twin, as a pair."""
    if use_rng:
        return random.Random(seed), random.Random(seed)
    return seed, random.Random(seed)


def assert_same_state(source, twin):
    if isinstance(source, random.Random):
        assert source.getstate() == twin.getstate()


# ---------------------------------------------------------------------- #
# Graph construction                                                      #
# ---------------------------------------------------------------------- #
@st.composite
def pair_lists(draw, *, valid=True):
    """``(n, pairs)``: pairs with repeats and both orientations of an edge."""
    n = draw(st.integers(0, 40))
    low, high = (0, n - 1) if valid else (-3, n + 2)
    if high < low:
        return n, []
    node = st.integers(low, high)
    base = draw(st.lists(st.tuples(node, node), max_size=80))
    if valid:
        base = [(u, v) for u, v in base if u != v]
    repeats = draw(st.lists(st.sampled_from(base), max_size=20)) if base else []
    pairs = base + repeats + [(v, u) for u, v in repeats]
    return n, draw(st.permutations(pairs))


class TestGraphBuild:
    @given(case=pair_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_set_based_build(self, case):
        n, pairs = case
        graph = Graph(n, pairs)
        edges, adjacency = set_build(n, pairs)
        assert_matches_reference(graph, n, pairs)
        assert graph.adjacency() == adjacency
        assert [graph.degree(v) for v in range(n)] == [len(a) for a in adjacency]
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                expected = 0 <= u < n and 0 <= v < n and v in adjacency[u]
                assert graph.has_edge(u, v) == expected
        assert hash(graph) == hash((n, edges))
        twin = Graph(n, np.array(list(reversed(pairs)), dtype=np.int64).reshape(-1, 2))
        assert twin == graph and hash(twin) == hash(graph)
        if edges:
            assert Graph(n, edges[1:]) != graph

    @given(case=pair_lists(valid=False))
    @settings(max_examples=150, deadline=None)
    def test_rejects_the_same_first_bad_edge(self, case):
        n, pairs = case
        try:
            set_build(n, pairs)
        except GraphError as exc:
            with pytest.raises(GraphError) as caught:
                Graph(n, pairs)
            assert str(caught.value) == str(exc)
        else:
            assert_matches_reference(Graph(n, pairs), n, pairs)


# ---------------------------------------------------------------------- #
# Array draws against the scalar loops                                    #
# ---------------------------------------------------------------------- #
class TestArrayDraws:
    @given(seed=seeds, n=st.integers(0, 3000), density=probabilities, use_rng=st.booleans())
    @example(seed=2**64, n=3000, density=1.0, use_rng=True)
    @example(seed=2**40 + 3, n=2048, density=0.5, use_rng=False)
    @settings(max_examples=12, deadline=None)
    def test_sparse_gnp_equals_the_pair_loop(self, seed, n, density, use_rng):
        # The library's own regime: expected degree at most about eight.
        probability = min(1.0, 8.0 * density / max(n, 1))
        source, twin = generator_source(seed, use_rng)
        graph = gnp_random_graph(n, probability, source)
        assert_matches_reference(graph, n, loop_pairs(n, n, probability, twin, upper=True))
        assert_same_state(source, twin)

    @given(seed=seeds, n=st.integers(0, 120), probability=probabilities, use_rng=st.booleans())
    @example(seed=10**18 + 7, n=120, probability=1.0, use_rng=True)
    @settings(max_examples=40, deadline=None)
    def test_gnp_equals_the_pair_loop(self, seed, n, probability, use_rng):
        source, twin = generator_source(seed, use_rng)
        graph = gnp_random_graph(n, probability, source)
        assert_matches_reference(graph, n, loop_pairs(n, n, probability, twin, upper=True))
        assert_same_state(source, twin)

    @given(
        seed=seeds,
        left=st.integers(0, 60),
        right=st.integers(0, 60),
        probability=probabilities,
        use_rng=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bipartite_equals_the_pair_loop(self, seed, left, right, probability, use_rng):
        source, twin = generator_source(seed, use_rng)
        graph = random_bipartite_graph(left, right, probability, source)
        pairs = [(u, left + v) for u, v in loop_pairs(left, right, probability, twin, upper=False)]
        assert_matches_reference(graph, left + right, pairs)
        assert_same_state(source, twin)

    @given(
        seed=seeds,
        n=st.integers(0, 1000),
        scale=st.floats(min_value=0.0, max_value=4.0),
        use_rng=st.booleans(),
    )
    @example(seed=2**64, n=1000, scale=1.0, use_rng=True)
    @settings(max_examples=12, deadline=None)
    def test_geometric_equals_the_point_loop(self, seed, n, scale, use_rng):
        radius = scale / max(n, 1) ** 0.5
        source, twin = generator_source(seed, use_rng)
        graph = random_geometric_graph(n, radius, source)
        assert_matches_reference(graph, n, loop_geometric(n, radius, twin))
        assert_same_state(source, twin)

    @given(seed=seeds, n=st.integers(1, 3000), use_rng=st.booleans())
    @example(seed=2**64, n=3000, use_rng=True)
    @settings(max_examples=40, deadline=None)
    def test_tree_equals_randrange_and_heap_decode(self, seed, n, use_rng):
        source, twin = generator_source(seed, use_rng)
        graph = random_tree(n, source)
        assert_matches_reference(graph, n, loop_tree(n, twin))
        assert_same_state(source, twin)

    @given(seed=seeds, n=st.integers(1, 400), probability=probabilities)
    @settings(max_examples=25, deadline=None)
    def test_tree_then_gnp_continues_one_stream(self, seed, n, probability):
        # random_connected_gnp draws a tree and then G(n, p) on one generator,
        # so the tree must hand the advanced state back before G(n, p) starts.
        rng, twin = random.Random(seed), random.Random(seed)
        graph = random_connected_gnp(n, probability, rng)
        pairs = loop_tree(n, twin) + loop_pairs(n, n, probability, twin, upper=True)
        assert_matches_reference(graph, n, pairs)
        assert rng.getstate() == twin.getstate()


class TestPrueferDecode:
    @given(seed=seeds, n=st.integers(2, 3000), spread=st.integers(1, 3000))
    @example(seed=0, n=3000, spread=1)
    @example(seed=2**64, n=3000, spread=3000)
    @settings(max_examples=60, deadline=None)
    def test_linear_decode_equals_heap_decode(self, seed, n, spread):
        # Entries below `spread` only: a small spread piles the sequence onto
        # a few high-degree nodes, a large one spreads it over the tree.
        rng = random.Random(seed)
        pruefer = [rng.randrange(min(spread, n)) for _ in range(n - 2)]
        assert_matches_reference(tree_from_pruefer(pruefer), n, heap_pruefer_edges(pruefer))

    @given(pruefer=st.lists(st.integers(-3, 12), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_rejects_the_first_entry_out_of_range(self, pruefer):
        n = len(pruefer) + 2
        bad = [value for value in pruefer if not 0 <= value < n]
        if not bad:
            assert_matches_reference(tree_from_pruefer(pruefer), n, heap_pruefer_edges(pruefer))
            return
        with pytest.raises(GraphError, match=f"^Prüfer entry {bad[0]} outside 0..{n - 1}$"):
            tree_from_pruefer(pruefer)
