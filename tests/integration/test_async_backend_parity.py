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
"""

import pytest

from repro.compilers import compile_to_asynchronous
from repro.graphs import generators
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol
from repro.protocols.mis import MISProtocol
from repro.scheduling.adversary import default_adversary_suite
from repro.scheduling.async_engine import run_asynchronous
from repro.scheduling.compiled import LazyStrictTable

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
            run_asynchronous(
                graph,
                protocol,
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
