"""Property tests for the locality partition behind sharded execution.

Sharded execution relies on two contracts from :mod:`repro.graphs.partition`:

* the BFS relabelling is a *bijection* that preserves adjacency — otherwise
  a permuted run computes on a different graph; and
* the counter rng stream is keyed by **original** node ids, so running the
  vectorized engine on the permuted graph with ``rng_node_keys`` set to the
  inverse permutation reproduces the original run node-for-node.  This is
  exactly the invariant that makes sharded results independent of the shard
  count and of the partition permutation.

Hypothesis explores both over arbitrary small graphs; deterministic cases
pin the cut quality on the structured families the paper targets.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.errors import GraphError  # noqa: E402
from repro.graphs import (  # noqa: E402
    Graph,
    bfs_order,
    count_cut_edges,
    partition_graph,
    permute_csr,
    shard_bounds,
)
from repro.graphs.generators import path_graph  # noqa: E402
from repro.protocols.mis import MISProtocol  # noqa: E402
from repro.scheduling.picks import resolve_pick_seed  # noqa: E402
from repro.scheduling.vectorized_engine import (  # noqa: E402
    TABLE_FIELDS,
    RowRange,
    VectorizedEngine,
    step_rows,
)

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_strategy(draw, max_nodes=24):
    """Arbitrary small simple graphs (possibly disconnected, possibly empty)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    if n == 1:
        return Graph(1)
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda uv: uv[0] != uv[1]),
            max_size=3 * n,
        )
    )
    return Graph(n, edges)


graphs = graphs_strategy()
strategies_axis = st.sampled_from(["bfs", "none"])


# ---------------------------------------------------------------------- #
# Bijection and bounds                                                    #
# ---------------------------------------------------------------------- #
@COMMON
@given(graph=graphs, shards=st.integers(1, 6), strategy=strategies_axis)
def test_partition_is_a_bijection(graph, shards, strategy):
    p = partition_graph(graph, shards, strategy=strategy)
    n = graph.num_nodes
    assert sorted(p.perm.tolist()) == list(range(n))
    assert np.array_equal(p.perm[p.inv], np.arange(n))
    assert np.array_equal(p.inv[p.perm], np.arange(n))


@COMMON
@given(graph=graphs, shards=st.integers(1, 6))
def test_shard_bounds_are_contiguous_and_balanced(graph, shards):
    p = partition_graph(graph, shards)
    n = graph.num_nodes
    assert p.bounds[0] == 0 and p.bounds[-1] == n
    sizes = np.diff(p.bounds)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    assert p.num_shards == shards
    # shard_of agrees with the bounds for every permuted node
    for node in range(n):
        shard = p.shard_of(node)
        assert p.bounds[shard] <= node < p.bounds[shard + 1]


@COMMON
@given(graph=graphs, shards=st.integers(2, 6))
def test_permuted_csr_preserves_adjacency(graph, shards):
    """Row ``v`` of the permuted CSR is exactly ``perm[neighbours(inv[v])]``."""
    p = partition_graph(graph, shards)
    indptr, indices = graph.csr_adjacency()
    new_indptr, new_indices = permute_csr(indptr, indices, p.perm, p.inv)
    for new in range(graph.num_nodes):
        old = int(p.inv[new])
        row = set(new_indices[new_indptr[new] : new_indptr[new + 1]].tolist())
        assert row == {int(p.perm[u]) for u in graph.neighbors(old)}


@COMMON
@given(graph=graphs, shards=st.integers(1, 6))
def test_cut_edges_match_brute_force(graph, shards):
    p = partition_graph(graph, shards)
    brute = sum(
        1
        for u, v in graph.edges
        if p.shard_of(int(p.perm[u])) != p.shard_of(int(p.perm[v]))
    )
    assert p.cut_edges == brute


@COMMON
@given(graph=graphs)
def test_bfs_order_visits_components_breadth_first(graph):
    """Every non-root node's BFS position follows one of its neighbours'."""
    indptr, indices = graph.csr_adjacency()
    order = bfs_order(indptr, indices, graph.num_nodes)
    position = np.empty(graph.num_nodes, dtype=np.int64)
    position[order] = np.arange(graph.num_nodes)
    for node in range(graph.num_nodes):
        if graph.degree(node) == 0:
            continue
        first_neighbour = min(position[v] for v in graph.neighbors(node))
        is_component_root = all(position[v] > position[node] for v in graph.neighbors(node))
        assert is_component_root or first_neighbour < position[node]


def test_bfs_partition_cut_is_optimal_on_a_path():
    graph = path_graph(64)
    p = partition_graph(graph, 4)
    assert p.cut_edges == 3  # contiguous quarters of the path


def test_identity_strategy_keeps_original_labels():
    graph = path_graph(10)
    p = partition_graph(graph, 2, strategy="none")
    assert np.array_equal(p.perm, np.arange(10))
    assert p.strategy == "none"


def test_invalid_inputs_raise():
    with pytest.raises(GraphError):
        partition_graph(path_graph(4), 2, strategy="metis")
    with pytest.raises(GraphError):
        shard_bounds(8, 0)


def test_partition_arrays_are_read_only():
    p = partition_graph(path_graph(12), 3)
    for array in (p.perm, p.inv, p.bounds):
        assert not array.flags.writeable


def test_count_cut_edges_counts_undirected_edges_once():
    graph = path_graph(8)
    indptr, indices = graph.csr_adjacency()
    assert count_cut_edges(indptr, indices, shard_bounds(8, 4)) == 3


# ---------------------------------------------------------------------- #
# Counter-rng permutation equivariance — the sharding determinism core    #
# ---------------------------------------------------------------------- #
@COMMON
@given(graph=graphs, seed=st.integers(0, 2**31))
def test_counter_stream_reproduces_runs_on_the_permuted_graph(graph, seed):
    """Permuted graph + inverse node keys == original run, node for node.

    This is the invariant sharded execution rests on: the counter rng draws
    a node's coin from its *original* id, so relabelling the graph and
    handing the engine the inverse permutation as ``rng_node_keys`` must
    reproduce the original execution exactly (modulo the relabelling).
    """
    p = partition_graph(graph, 2)
    original = VectorizedEngine(graph, MISProtocol(), seed=seed).run(max_rounds=500)
    permuted_graph = Graph(
        graph.num_nodes,
        [(int(p.perm[u]), int(p.perm[v])) for u, v in graph.edges],
    )
    permuted = VectorizedEngine(
        permuted_graph,
        MISProtocol(),
        seed=seed,
        rng_node_keys=np.asarray(p.inv, dtype=np.uint64),
    ).run(max_rounds=500)
    assert permuted.rounds == original.rounds
    assert permuted.total_messages == original.total_messages
    for node in graph.nodes:
        new = int(p.perm[node])
        assert permuted.final_states[new] == original.final_states[node]
        assert permuted.outputs.get(new) == original.outputs.get(node)


@COMMON
@given(graph=graphs, seed=st.integers(0, 2**31), shards=st.integers(1, 4))
def test_round_function_steps_row_ranges_like_one_engine(graph, seed, shards):
    """Stepping every shard range with the round function is one engine round.

    The in-process form of what each shard worker does: on the permuted
    CSR, with the inverse permutation as node keys, ``step_rows`` runs over
    each range of the partition in turn.  Round by round the states, the
    letters and the message count equal those of one ``VectorizedEngine``
    run on the permuted graph, and every range retires its own rows: a round
    steps exactly the range's rows that were not in a sink when the round
    before it began.
    """
    p = partition_graph(graph, min(shards, graph.num_nodes))
    permuted_graph = Graph(
        graph.num_nodes,
        [(int(p.perm[u]), int(p.perm[v])) for u, v in graph.edges],
    )
    node_keys = np.asarray(p.inv, dtype=np.uint64)
    engine = VectorizedEngine(permuted_graph, MISProtocol(), seed=seed, rng_node_keys=node_keys)
    compiled = engine.compiled
    arrays = tuple(getattr(compiled, name) for name in TABLE_FIELDS)
    indptr, indices = permute_csr(*graph.csr_adjacency(), p.perm, p.inv)
    bounding, width = MISProtocol().bounding.value, compiled.num_letters
    ranges = [
        RowRange(indptr, indices, int(lo), int(hi), node_keys, width)
        for lo, hi in zip(p.bounds[:-1], p.bounds[1:])
    ]
    state = np.asarray([compiled.state_id(s) for s in engine.states], dtype=np.int64)
    letters = np.full((2, graph.num_nodes), compiled.initial_letter_id, dtype=np.int64)
    pick_seed = resolve_pick_seed(seed)
    messages = 0
    settled = np.zeros(graph.num_nodes, dtype=bool)  # in a sink as the last round began
    while engine.round_index < 200 and not engine.in_output_configuration():
        r = engine.round_index
        in_sink = compiled.sink_mask[state]
        for rows, lo, hi in zip(ranges, p.bounds[:-1], p.bounds[1:]):
            messages += step_rows(rows, r, state, letters, arrays, pick_seed, bounding)
            stepped = np.arange(graph.num_nodes)[rows.live]
            assert stepped.tolist() == [v for v in range(lo, hi) if not settled[v]]
        settled = in_sink
        engine.step_round()
        transmitted = letters[(r + 1) % 2]
        assert tuple(compiled.states[i] for i in state) == engine.states
        assert tuple(compiled.letters[i] for i in transmitted) == engine.last_letters
        assert messages == engine.run(max_rounds=engine.round_index).total_messages
