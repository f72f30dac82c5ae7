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

from repro.compilers import compile_to_asynchronous, lower_to_single_query
from repro.graphs import generators
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.scheduling.sync_engine import run_synchronous
from repro.verification import (
    is_maximal_independent_set,
    is_proper_coloring,
)

SEEDS = (0, 1, 17)

GRAPHS = {
    "path": lambda seed: generators.path_graph(40),
    "tree": lambda seed: generators.random_tree(60, seed=seed),
    "gnp": lambda seed: generators.gnp_random_graph(60, 0.08, seed=seed),
}


def _run_both(graph, protocol_factory, seed, inputs=None, max_rounds=100_000):
    results = []
    for backend in ("python", "vectorized"):
        results.append(
            run_synchronous(
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


@pytest.mark.parametrize("family", ["path", "tree"])
@pytest.mark.parametrize("seed", SEEDS)
def test_coloring_parity(family, seed):
    graph = GRAPHS[family](seed)
    interpreted, vectorized = _run_both(
        graph, TreeColoringProtocol, seed, max_rounds=50_000
    )
    assert interpreted.summary_fields() == vectorized.summary_fields()
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
    result = run_synchronous(
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
        auto = run_synchronous(
            graph, MISProtocol(), seed=5, backend="auto", raise_on_timeout=False
        )
        python = run_synchronous(
            graph, MISProtocol(), seed=5, backend="python", raise_on_timeout=False
        )
        assert auto.summary_fields() == python.summary_fields()


# ---------------------------------------------------------------------- #
# Kernel tier parity                                                      #
# ---------------------------------------------------------------------- #
# The compiled-kernel tier must be *bitwise* identical to the vectorized
# tier (and therefore to the interpreter) for every workload it accepts.
# When numba is absent the fixture runs the uncompiled kernel bodies —
# the exact functions numba would compile, executed as pure python — so
# the parity lock is skip-free: it exercises the same arithmetic on every
# host, and the compiled path on hosts with numba.  Graphs are small
# because the pure bodies interpret every loop iteration.

from repro.scheduling.async_engine import run_asynchronous  # noqa: E402
from repro.scheduling.kernels import kernel_availability  # noqa: E402

KERNEL_SEEDS = (0, 1, 17)

KERNEL_GRAPHS = {
    "path": lambda seed: generators.path_graph(26),
    "random_tree": lambda seed: generators.random_tree(28, seed=seed),
    "gnp_sparse": lambda seed: generators.gnp_random_graph(30, 0.12, seed=seed),
}

KERNEL_PROTOCOLS = ("mis", "coloring", "broadcast")


@pytest.fixture
def kernel_tier(monkeypatch):
    """Make the kernel tier available on every host (see module comment)."""
    from repro.scheduling import kernels

    if not kernel_availability()[0]:
        monkeypatch.setattr(kernels, "_FORCE_MODE", "pure")


def _kernel_run_pair(graph, factory, seed, *, inputs=None, max_rounds=100_000,
                     shards=None):
    kernel = run_synchronous(
        graph, factory(), seed=seed, inputs=inputs, max_rounds=max_rounds,
        raise_on_timeout=False, backend="kernel", shards=shards,
    )
    vectorized = run_synchronous(
        graph, factory(), seed=seed, inputs=inputs, max_rounds=max_rounds,
        raise_on_timeout=False, backend="vectorized", shards=shards,
    )
    return kernel, vectorized


@pytest.mark.parametrize("family", sorted(KERNEL_GRAPHS))
@pytest.mark.parametrize("seed", KERNEL_SEEDS)
@pytest.mark.parametrize("proto", KERNEL_PROTOCOLS)
def test_sync_kernel_parity(kernel_tier, proto, family, seed):
    graph = KERNEL_GRAPHS[family](seed)
    factory = {
        "mis": MISProtocol,
        "coloring": TreeColoringProtocol,
        "broadcast": BroadcastProtocol,
    }[proto]
    inputs = broadcast_inputs(0) if proto == "broadcast" else None
    # Tree-coloring never terminates on a non-tree; parity must still hold
    # on the capped partial execution.
    max_rounds = 400 if (proto, family) == ("coloring", "gnp_sparse") else 100_000
    if proto == "broadcast":
        from repro.graphs.properties import is_connected

        if not is_connected(graph):
            max_rounds = graph.num_nodes + 1
    kernel, vectorized = _kernel_run_pair(
        graph, factory, seed, inputs=inputs, max_rounds=max_rounds
    )
    assert kernel.summary_fields() == vectorized.summary_fields()
    assert kernel.metadata["backend"] == "kernel"


@pytest.mark.parametrize("family", sorted(KERNEL_GRAPHS))
@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_sync_kernel_sharded_parity(kernel_tier, family, seed):
    """kernel × shards: the fused shard-round kernel against the NumPy
    shard loop, plus shard-count
    invariance of the kernel path itself."""
    graph = KERNEL_GRAPHS[family](seed)
    kernel, vectorized = _kernel_run_pair(graph, MISProtocol, seed, shards=2)
    assert kernel.summary_fields() == vectorized.summary_fields()
    one_shard = run_synchronous(
        graph, MISProtocol(), seed=seed, raise_on_timeout=False,
        backend="kernel", shards=1,
    )
    assert kernel.summary_fields() == one_shard.summary_fields()


@pytest.mark.parametrize("family", sorted(KERNEL_GRAPHS))
@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_async_kernel_parity(kernel_tier, family, seed):
    """The time-bucketed async kernels against the NumPy bucket path."""
    graph = KERNEL_GRAPHS[family](seed)
    results = []
    for backend in ("vectorized", "kernel"):
        results.append(
            run_asynchronous(
                graph, BroadcastProtocol(), seed=seed, adversary_seed=seed + 17,
                inputs=broadcast_inputs(0), max_events=500_000,
                raise_on_timeout=False, backend=backend,
            )
        )
    vectorized, kernel = results
    assert kernel.summary_fields() == vectorized.summary_fields()
    assert kernel.metadata["backend"] == "kernel"
    assert vectorized.metadata["backend"] == "vectorized"


@pytest.mark.parametrize("seed", (0, 17))
def test_async_kernel_parity_compiled_mis(kernel_tier, seed):
    """Kernel buckets also agree on a synchronizer-compiled protocol
    running off the shared lazy strict table."""
    from repro.scheduling.compiled import LazyStrictTable

    protocol = compile_to_asynchronous(MISProtocol())
    table = LazyStrictTable(protocol)
    graph = generators.gnp_random_graph(7, 0.45, seed=3)
    results = []
    for backend in ("vectorized", "kernel"):
        results.append(
            run_asynchronous(
                graph, protocol, seed=seed, adversary_seed=seed + 17,
                max_events=2_000_000, raise_on_timeout=False,
                backend=backend, table=table,
            )
        )
    vectorized, kernel = results
    assert kernel.summary_fields() == vectorized.summary_fields()
    assert kernel.reached_output
