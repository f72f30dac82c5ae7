"""Seed-for-seed equivalence of the interpreted and vectorized backends.

Both engines draw from the one counter pick stream (a pure hash of seed,
round and node id for every node with a multi-option transition), so for
every (graph, protocol, seed) triple the two backends must produce
*identical* :class:`ExecutionResult` fields: final states, outputs,
rounds, total node steps, message counts and the seed itself.  This is the
contract that makes ``backend="auto"`` safe to use everywhere — this
module pins it across the paper's protocols and the graph families of the
scaling experiments.
"""

import pytest

from repro.api import Simulation
from repro.compilers import compile_to_asynchronous, lower_to_single_query
from repro.graphs import generators
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.verification import (
    is_maximal_independent_set,
    is_proper_coloring,
)

SEEDS = (0, 1, 17)

#: Topologies drawn from the sweep harness's ``GRAPH_FAMILIES``, at sizes
#: the interpreter runs in well under a second each.
GRAPHS = {
    "path": lambda seed: generators.path_graph(40),
    "tree": lambda seed: generators.random_tree(60, seed=seed),
    "gnp": lambda seed: generators.gnp_random_graph(60, 0.08, seed=seed),
    "cycle": lambda seed: generators.cycle_graph(40),
    "star": lambda seed: generators.star_graph(39),
    "binary_tree": lambda seed: generators.binary_tree(63),
    "grid": lambda seed: generators.grid_graph(7, 7),
    "complete": lambda seed: generators.complete_graph(16),
    "preferential_attachment": lambda seed: generators.preferential_attachment_graph(
        60, seed=seed
    ),
    "random_geometric": lambda seed: generators.random_geometric_graph(60, seed=seed),
}


def _run_both(graph, protocol_factory, seed, inputs=None, max_rounds=100_000):
    results = []
    for backend in ("python", "vectorized"):
        results.append(
            Simulation().run_protocol(
                graph,
                protocol_factory(),
                seed=seed,
                inputs=inputs,
                max_rounds=max_rounds,
                raise_on_timeout=False,
                backend=backend,
            )
        )
    return results


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("seed", SEEDS)
def test_mis_parity(family, seed):
    graph = GRAPHS[family](seed)
    interpreted, vectorized = _run_both(graph, MISProtocol, seed)
    assert interpreted.summary_fields() == vectorized.summary_fields()
    assert is_maximal_independent_set(graph, mis_from_result(vectorized))


@pytest.mark.parametrize("family", ["binary_tree", "gnp", "path", "star", "tree"])
@pytest.mark.parametrize("seed", SEEDS)
def test_coloring_parity(family, seed):
    from repro.graphs.properties import is_tree

    graph = GRAPHS[family](seed)
    # Tree-coloring never terminates on a cyclic G(n,p) sample; the backends
    # must still agree on the capped partial execution.
    tree = is_tree(graph)
    interpreted, vectorized = _run_both(
        graph, TreeColoringProtocol, seed, max_rounds=50_000 if tree else 400
    )
    assert interpreted.summary_fields() == vectorized.summary_fields()
    if tree:
        assert is_proper_coloring(graph, coloring_from_result(vectorized))


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_parity(family, seed):
    from repro.graphs.properties import is_connected

    graph = GRAPHS[family](seed)
    # On a disconnected G(n,p) sample the token cannot reach every node; the
    # backends must still agree on the (timed-out) partial execution, so cap
    # the budget rather than skip.
    max_rounds = graph.num_nodes + 1 if not is_connected(graph) else 100_000
    interpreted, vectorized = _run_both(
        graph, BroadcastProtocol, seed, inputs=broadcast_inputs(0),
        max_rounds=max_rounds,
    )
    assert interpreted.summary_fields() == vectorized.summary_fields()
    if is_connected(graph):
        assert vectorized.reached_output
        assert all(vectorized.outputs[node] for node in graph.nodes)


@pytest.mark.parametrize("seed", SEEDS)
def test_biased_coin_mis_parity(seed):
    """Weighted option sets (duplicated choices) draw identically too."""
    graph = generators.gnp_random_graph(48, 0.1, seed=seed)
    interpreted, vectorized = _run_both(
        graph, lambda: MISProtocol(climb_weight=3, decide_weight=1), seed
    )
    assert interpreted.summary_fields() == vectorized.summary_fields()


@pytest.mark.parametrize("seed", SEEDS)
def test_timeout_parity(seed):
    """Partial executions (round budget hit) also agree field-for-field."""
    graph = generators.cycle_graph(24)
    interpreted, vectorized = _run_both(graph, MISProtocol, seed, max_rounds=3)
    assert not interpreted.reached_output
    assert interpreted.summary_fields() == vectorized.summary_fields()


# Synchronizer- and multiquery-compiled protocols: their reachable closures
# are far too large for the eager tabulation, so the vectorized backend runs
# them off a LazyExtendedTable — the parity contract is identical.
COMPILED_PROTOCOLS = {
    "synchronized-broadcast": lambda: compile_to_asynchronous(BroadcastProtocol()),
    "synchronized-mis": lambda: compile_to_asynchronous(MISProtocol()),
    "single-query-mis": lambda: lower_to_single_query(MISProtocol()),
}


@pytest.mark.parametrize("name", sorted(COMPILED_PROTOCOLS))
@pytest.mark.parametrize("seed", (0, 17))
def test_compiled_protocol_parity(name, seed):
    factory = COMPILED_PROTOCOLS[name]
    inputs = broadcast_inputs(0) if "broadcast" in name else None
    graph = (
        generators.path_graph(24)
        if "broadcast" in name
        else generators.gnp_random_graph(20, 0.25, seed=seed)
    )
    interpreted, vectorized = _run_both(
        graph, factory, seed, inputs=inputs, max_rounds=2_000_000
    )
    assert interpreted.summary_fields() == vectorized.summary_fields()
    assert interpreted.reached_output


@pytest.mark.parametrize("seed", (0, 17))
def test_compiled_coloring_parity(seed):
    """The compiled tree-coloring protocol overflows even the *lazy strict*
    enumeration attempt of the eager path; the lazy extended table runs it."""
    graph = generators.random_tree(16, seed=seed)
    interpreted, vectorized = _run_both(
        graph,
        lambda: compile_to_asynchronous(TreeColoringProtocol()),
        seed,
        max_rounds=5_000_000,
    )
    assert interpreted.summary_fields() == vectorized.summary_fields()
    assert interpreted.reached_output


def test_compiled_protocols_vectorize_under_auto():
    """backend='auto' no longer interprets compiled protocols silently: the
    selection metadata reports the lazy vectorized path and the reason."""
    graph = generators.path_graph(16)
    result = Simulation().run_protocol(
        graph,
        compile_to_asynchronous(BroadcastProtocol()),
        seed=3,
        inputs=broadcast_inputs(0),
        max_rounds=1_000_000,
        raise_on_timeout=False,
        backend="auto",
    )
    assert result.metadata["backend"] == "vectorized"
    assert result.metadata["backend_mode"] == "lazy"
    assert "lazy" in result.metadata["backend_reason"]


def test_auto_backend_matches_python_on_the_full_matrix():
    """One sweep-shaped pass with backend='auto' against the interpreter."""
    for family in sorted(GRAPHS):
        graph = GRAPHS[family](5)
        auto = Simulation().run_protocol(
            graph, MISProtocol(), seed=5, backend="auto", raise_on_timeout=False
        )
        python = Simulation().run_protocol(
            graph, MISProtocol(), seed=5, backend="python", raise_on_timeout=False
        )
        assert auto.summary_fields() == python.summary_fields()
