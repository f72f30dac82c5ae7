"""Seed-for-seed equivalence of the interpreted and vectorized async backends.

The vectorized asynchronous engine replays the interpreted engine's
canonical event order (deliveries before steps at equal instants, steps by
node id), both draw the same counter picks, and the shipped adversary
schedules are pure functions of the draw coordinates — so for every
(policy, protocol, graph, seed) combination a *terminating* run must produce
identical results on both backends: outputs, reached_output, final states,
step/message counts and the normalised ``time_units``.  This module pins
that contract over the full adversary suite × {MIS, coloring, broadcast} ×
{path, tree, gnp} × three seeds.

The synchronizer-compiled MIS and coloring protocols exercise the lazy
table (their eager reachable closures run to 10^5–10^6 states); one table
per protocol is shared across the whole matrix, as real sweeps do.

An asynchronous run is one process, so ``shards=`` changes nothing here: a
``shards >= 2`` request runs the unsharded engine and says so.
"""

import pytest

from repro.api import RunSpec, Simulation
from repro.compilers import compile_to_asynchronous
from repro.core.errors import ExecutionError, OutputNotReachedError
from repro.graphs import generators
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol
from repro.protocols.mis import MISProtocol
from repro.scheduling.adversary import SkewedRatesAdversary, default_adversary_suite
from repro.scheduling.async_engine import AUTO_VECTORIZE_MIN_NODES
from repro.scheduling.compiled import LazyStrictTable
from repro.scheduling.vectorized_async_engine import DRAW_BLOCK

SEEDS = (0, 1, 2)
ADVERSARIES = default_adversary_suite()

GRAPHS = {
    "path": lambda: generators.path_graph(6),
    "tree": lambda: generators.random_tree(7, seed=13),
    "gnp": lambda: generators.gnp_random_graph(7, 0.45, seed=3),
}

# The synchronizer-compiled coloring protocol needs hundreds of compiled
# steps per simulated round, so its matrix leg runs on slightly smaller
# instances to keep the suite fast; coverage (policies × seeds) is identical.
COLORING_GRAPHS = {
    "path": lambda: generators.path_graph(5),
    "tree": lambda: generators.random_tree(6, seed=13),
    "gnp": lambda: generators.gnp_random_graph(7, 0.45, seed=3),
}

# The compiled protocols (and their shared lazy tables) are built once: the
# matrix is 100+ runs and the whole point of table interning is amortisation.
_COMPILED = {}


def _compiled(name):
    if name not in _COMPILED:
        factory = {
            "mis": lambda: compile_to_asynchronous(MISProtocol()),
            "coloring": lambda: compile_to_asynchronous(TreeColoringProtocol()),
            "broadcast": BroadcastProtocol,
        }[name]
        protocol = factory()
        _COMPILED[name] = (protocol, LazyStrictTable(protocol))
    return _COMPILED[name]


def _run_both(protocol, table, graph, adversary, seed, inputs=None, max_events=2_000_000):
    results = []
    for backend in ("python", "vectorized"):
        results.append(
            Simulation().run_protocol(
                graph,
                protocol,
                environment="async",
                adversary=adversary,
                seed=seed,
                adversary_seed=seed + 17,
                inputs=inputs,
                max_events=max_events,
                raise_on_timeout=False,
                backend=backend,
                table=table,
            )
        )
    return results


def _assert_parity(interpreted, vectorized):
    if not interpreted.reached_output:
        # Partial (timed-out) runs are compared only on the verdict: the
        # ``max_events`` budget is enforced at bucket granularity by the
        # vectorized engine, so mid-run states need not align event-for-event.
        assert not vectorized.reached_output
        return
    assert vectorized.reached_output
    assert interpreted.outputs == vectorized.outputs
    assert interpreted.final_states == vectorized.final_states
    assert interpreted.time_units == vectorized.time_units
    assert interpreted.elapsed_time == vectorized.elapsed_time
    assert interpreted.total_node_steps == vectorized.total_node_steps
    assert interpreted.total_messages == vectorized.total_messages
    assert (
        interpreted.metadata["max_parameter"] == vectorized.metadata["max_parameter"]
    )


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.name)
@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_parity(adversary, family, seed):
    protocol, table = _compiled("broadcast")
    graph = GRAPHS[family]()
    interpreted, vectorized = _run_both(
        protocol, table, graph, adversary, seed, inputs=broadcast_inputs(0)
    )
    assert interpreted.reached_output
    _assert_parity(interpreted, vectorized)


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.name)
@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("seed", SEEDS)
def test_synchronized_mis_parity(adversary, family, seed):
    protocol, table = _compiled("mis")
    graph = GRAPHS[family]()
    interpreted, vectorized = _run_both(protocol, table, graph, adversary, seed)
    assert interpreted.reached_output
    _assert_parity(interpreted, vectorized)


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.name)
@pytest.mark.parametrize("family", ["path", "tree"])
@pytest.mark.parametrize("seed", SEEDS)
def test_synchronized_coloring_parity(adversary, family, seed):
    protocol, table = _compiled("coloring")
    graph = COLORING_GRAPHS[family]()
    interpreted, vectorized = _run_both(protocol, table, graph, adversary, seed)
    assert interpreted.reached_output
    _assert_parity(interpreted, vectorized)


def test_array_path_parity_with_multi_option_transitions():
    """The small-graph matrix above runs entirely through the engine's
    scalar tiny-bucket path; this leg forces the *array* path (buckets far
    above ``SCALAR_BUCKET_CUTOFF``) with a protocol that actually draws
    randomness — synchronized MIS at n = 200 — covering the optimistic
    apply, the rng-rewind termination scan and the ragged delivery/emit
    gathers."""
    protocol, table = _compiled("mis")
    graph = generators.gnp_random_graph(200, 3.0 / 200, seed=9)
    interpreted, vectorized = _run_both(
        protocol, table, graph, ADVERSARIES[1], 2, max_events=40_000_000
    )
    assert interpreted.reached_output
    _assert_parity(interpreted, vectorized)


def test_array_path_parity_with_data_driven_margins():
    """The exponential adversary has no useful static delay lower bound, so
    the engine samples the pending steps' delays to size its buckets — the
    one margin mode the rest of the suite never reaches at array scale."""
    protocol, table = _compiled("broadcast")
    graph = generators.binary_tree(1025)
    interpreted, vectorized = _run_both(
        protocol,
        table,
        graph,
        ADVERSARIES[2],
        1,
        inputs=broadcast_inputs(0),
        max_events=40_000_000,
    )
    assert interpreted.reached_output
    assert interpreted.metadata["adversary"] == "exponential"
    _assert_parity(interpreted, vectorized)


#: The n = 1025 runs behind the E3 and A2 backend comparisons: synchronized
#: broadcast on a binary tree under skewed rates, mild and severe.
LARGE_SKEWED_RUNS = {
    "E3": {"seed": 1, "adversary": SkewedRatesAdversary(), "adversary_seed": 2},
    "A2": {
        "seed": 3,
        "adversary": SkewedRatesAdversary(slow_fraction=0.3, slow_factor=8.0),
        "adversary_seed": 4,
    },
}


@pytest.mark.parametrize("experiment", sorted(LARGE_SKEWED_RUNS))
def test_synchronized_broadcast_parity_at_n_1025(experiment):
    """A cold and then a warm pass over one lazy table both equal the
    interpreter."""
    protocol = compile_to_asynchronous(BroadcastProtocol())
    table = LazyStrictTable(protocol)
    graph = generators.binary_tree(1025)

    def run(backend):
        return Simulation().run_protocol(
            graph,
            protocol,
            environment="async",
            inputs=broadcast_inputs(0),
            max_events=50_000_000,
            raise_on_timeout=False,
            backend=backend,
            table=table,
            **LARGE_SKEWED_RUNS[experiment],
        )

    interpreted = run("python")
    assert interpreted.reached_output
    for vectorized in (run("vectorized"), run("vectorized")):
        _assert_parity(interpreted, vectorized)


@pytest.mark.parametrize("seed", SEEDS)
def test_synchronized_coloring_parity_on_gnp(seed):
    """Coloring × gnp: the protocol's contract covers trees only, so a cyclic
    G(n,p) sample may never reach an output configuration — the backends must
    still agree on the verdict within the same event budget."""
    protocol, table = _compiled("coloring")
    graph = COLORING_GRAPHS["gnp"]()
    interpreted, vectorized = _run_both(
        protocol, table, graph, ADVERSARIES[1], seed, max_events=120_000
    )
    _assert_parity(interpreted, vectorized)


#: protocol -> (graph family, extra spec fields) of the spec-driven runs.
#: Broadcast and coloring need connected/tree topologies to make progress.
SPEC_PROTOCOLS = {
    "mis": ("gnp_sparse", {}),
    "coloring": ("random_tree", {}),
    "broadcast": ("random_tree", {"inputs": {"source": 0}}),
}


def _spec(protocol, **overrides):
    """A 24-node async spec, truncated at 20,000 events: parity on a
    truncated run is as strong a check as parity on a terminated one."""
    family, extra = SPEC_PROTOCOLS[protocol]
    fields = dict(
        protocol=protocol,
        graph=family,
        nodes=24,
        environment="async",
        adversary="uniform",
        max_events=20_000,
        **extra,
    )
    fields.update(overrides)
    return RunSpec(**fields)


def _identity(result) -> tuple:
    """Everything two parity-locked async runs must agree on, bitwise."""
    return (
        result.summary_fields(),
        result.time_units,
        result.total_node_steps,
        result.total_messages,
        result.metadata.get("max_parameter"),
    )


@pytest.mark.parametrize("adversary", [policy.name for policy in ADVERSARIES])
@pytest.mark.parametrize("protocol", sorted(SPEC_PROTOCOLS))
def test_vectorized_runs_are_unchanged_by_the_shard_count(protocol, adversary):
    """Every ``shards`` value gives the unsharded batched run, and a
    ``shards >= 2`` request reports one shard and why it ran unsharded."""
    session = Simulation()
    base = _spec(protocol, adversary=adversary, seed=7, backend="vectorized")
    reference = session.simulate(base, raise_on_timeout=False)
    for shards in (1, 2, 4):
        result = session.simulate(base.replace(shards=shards), raise_on_timeout=False)
        assert _identity(result) == _identity(reference), f"shards={shards}"
        if shards >= 2:
            assert result.metadata["backend"] == "vectorized"
            assert result.metadata["shard_count"] == 1
            reason = result.metadata["backend_reason"]
            assert f"shards={shards} requested but" in reason
            assert "ran unsharded" in reason


def test_auto_stays_interpreted_on_small_networks_for_every_shard_count():
    """A truncated ``"auto"`` run below the batching threshold is the same
    interpreted run with or without ``shards=``."""
    session = Simulation()
    spec = _spec("mis", seed=11, max_events=500)
    unsharded = session.simulate(spec.replace(shards=None), raise_on_timeout=False)
    sharded = session.simulate(spec.replace(shards=2), raise_on_timeout=False)
    assert not unsharded.reached_output
    assert _identity(sharded) == _identity(unsharded)
    assert sharded.metadata["backend"] == "python"
    assert sharded.metadata["shard_count"] == 1
    assert "shards=2 dropped" in sharded.metadata["backend_reason"]


def test_deterministic_protocol_matches_the_interpreter_bitwise():
    """Where the protocol never draws (single-option transitions), a
    ``shards=2`` batched run equals the *interpreter* too."""
    session = Simulation()
    base = _spec("broadcast", seed=3, max_events=2_000_000)
    interpreted = session.simulate(base.replace(backend="python"), raise_on_timeout=False)
    batched = session.simulate(base.replace(backend="vectorized", shards=2), raise_on_timeout=False)
    assert interpreted.reached_output and batched.reached_output
    assert _identity(batched) == _identity(interpreted)


@pytest.mark.parametrize("adversary", ["synchronous", "uniform"])
def test_draw_bearing_protocol_matches_the_interpreter_bitwise(adversary):
    """Compiled MIS draws a coin on most steps; with one pick stream in every
    engine a terminating run equals the interpreter for every shards value."""
    session = Simulation()
    base = _spec("mis", adversary=adversary, seed=7, nodes=8, max_events=2_000_000)
    interpreted = session.simulate(base.replace(backend="python"))
    assert interpreted.reached_output
    for shards in (None, 1, 2):
        batched = session.simulate(base.replace(backend="vectorized", shards=shards))
        assert _identity(batched) == _identity(interpreted), f"shards={shards}"


def test_shard_count_capped_at_node_count():
    """More shards than nodes is the same one-process run as ``shards=1``."""
    session = Simulation()
    small = _spec("mis", seed=1, nodes=3, max_events=100_000, backend="vectorized")
    result = session.simulate(small.replace(shards=16), raise_on_timeout=False)
    reference = session.simulate(small.replace(shards=1), raise_on_timeout=False)
    assert _identity(result) == _identity(reference)
    assert result.metadata["shard_count"] == 1
    assert "shards=16 requested but" in result.metadata["backend_reason"]


def test_auto_batches_large_networks_whatever_the_shard_count():
    """The size heuristic of ``"auto"`` ignores ``shards``: at the batching
    threshold both runs are batched, and the ``shards=2`` one says it ran
    unsharded."""
    session = Simulation()
    spec = _spec("mis", seed=3, nodes=AUTO_VECTORIZE_MIN_NODES)
    unsharded = session.simulate(spec, raise_on_timeout=False)
    sharded = session.simulate(spec.replace(shards=2), raise_on_timeout=False)
    assert _identity(sharded) == _identity(unsharded)
    assert unsharded.metadata["backend"] == sharded.metadata["backend"] == "vectorized"
    assert "shard_count" not in unsharded.metadata
    assert sharded.metadata["shard_count"] == 1
    assert "ran unsharded" in sharded.metadata["backend_reason"]


@pytest.mark.parametrize("seed", [0, 1])
def test_exponential_runs_long_enough_to_refill_draw_blocks(seed):
    """Compiled MIS under ``exponential`` at n=33 runs almost every step
    through the tiny-bucket path; its nodes take many draw blocks each."""
    session = Simulation()
    spec = RunSpec(
        protocol="mis",
        graph="random_tree",
        nodes=33,
        environment="async",
        adversary="exponential",
        seed=seed,
    )
    interpreted = session.simulate(spec.replace(backend="python"))
    batched = session.simulate(spec.replace(backend="vectorized"))
    assert batched.metadata["backend"] == "vectorized"
    assert _identity(batched) == _identity(interpreted)
    assert batched.final_states == interpreted.final_states
    assert batched.total_node_steps / spec.nodes > 2 * DRAW_BLOCK


def test_truncated_run_keeps_the_unsharded_annotation():
    """A ``shards=2`` run cut at its event budget raises with a partial
    result that still records the one-shard split and its reason."""
    spec = _spec("mis", seed=7, max_events=100, backend="vectorized", shards=2)
    with pytest.raises(OutputNotReachedError) as info:
        Simulation().simulate(spec)
    metadata = info.value.result.metadata
    assert metadata["shard_count"] == 1
    assert metadata["halo_bytes_per_bucket"] == 0
    assert "ran unsharded" in metadata["backend_reason"]


def test_observer_keeps_a_sharded_request_interpreted():
    """A per-transition observer needs the interpreter under ``"auto"``;
    the ``shards=2`` request is dropped and the reason says so."""
    records = []
    result = Simulation().run_protocol(
        generators.path_graph(8),
        compile_to_asynchronous(MISProtocol()),
        environment="async",
        seed=1,
        observer=records.append,
        shards=2,
    )
    assert records
    assert result.metadata["backend"] == "python"
    assert result.metadata["shard_count"] == 1
    reason = result.metadata["backend_reason"]
    assert "observers require the interpreted engine (shards=2 dropped)" in reason


def test_python_backend_refuses_shards():
    """``backend="python"`` with ``shards >= 2`` is an error, as it is for
    synchronous runs, not a silently unsharded run."""
    with pytest.raises(ExecutionError, match="cannot shard"):
        Simulation().run_protocol(
            generators.path_graph(8),
            compile_to_asynchronous(MISProtocol()),
            environment="async",
            backend="python",
            shards=2,
        )


def test_session_counts_a_sharded_request_with_no_halo():
    """The session's shard statistics count a ``shards=2`` async run as one
    run that cut no edge and exchanged no halo."""
    session = Simulation()
    session.simulate(_spec("mis", seed=7, backend="vectorized", shards=2), raise_on_timeout=False)
    assert session.cache_info()["sharding"] == {
        "runs": 1,
        "cut_edges": 0,
        "halo_bytes_per_round": 0,
    }
