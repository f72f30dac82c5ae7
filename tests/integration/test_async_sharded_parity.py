"""Sharded asynchronous execution parity matrix and shared-memory hygiene.

The asynchronous sharding contract mirrors the synchronous one: for any
``shards`` value, a time-bucketed run produces exactly the result of the
unsharded vectorized engine — same final states, same outputs, same
step/message counts, same normalised run-time, node for node — and every
terminating run equals the python interpreter too.  Every adversary
schedule and every protocol pick is a pure counter function of ``(seed,
node, step)``, so the event timeline never depends on which shard computes
it; this module pins that across the full matrix of protocols × all six
registered adversary policies × shard counts × seeds, and checks that no
``/dev/shm`` segment outlives an engine — including when a worker process
is killed mid-run.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

np_available = np  # imported eagerly; the engines require numpy anyway

from repro.api import RunSpec, Simulation
from repro.compilers import compile_to_asynchronous
from repro.core.errors import ExecutionError
from repro.graphs import generators
from repro.protocols.mis import MISProtocol
from repro.scheduling.shard_pool import sharding_supported
from repro.scheduling.sharded_async_engine import ShardedAsyncEngine
from repro.scheduling.vectorized_async_engine import VectorizedAsynchronousEngine
from shm_segments import leaked_segments

pytestmark = pytest.mark.skipif(
    not sharding_supported(), reason="platform lacks POSIX shared memory"
)

#: protocol -> (graph family, extra spec fields).  Broadcast and coloring
#: need connected/tree topologies to make progress.
PROTOCOL_SPECS = {
    "mis": ("gnp_sparse", {}),
    "coloring": ("random_tree", {}),
    "broadcast": ("random_tree", {"inputs": {"source": 0}}),
}
ADVERSARIES = [
    "synchronous",
    "uniform",
    "exponential",
    "skewed-rates",
    "bursty",
    "targeted-laggard",
]
SHARD_COUNTS = [1, 2, 4]
SEEDS = [0, 7, 1234]
NODES = 24
#: Event budget for the matrix cells.  Some protocol × adversary pairings
#: need millions of events to terminate at this size; parity on the
#: *truncated* execution is just as strong a check as parity on a
#: terminated one (both engines count the same per-bucket events), without
#: paying the full run for every cell.
MATRIX_MAX_EVENTS = 20_000


def _spec(protocol, adversary, seed, **overrides):
    family, extra = PROTOCOL_SPECS[protocol]
    fields = dict(
        protocol=protocol,
        graph=family,
        nodes=NODES,
        seed=seed,
        environment="async",
        adversary=adversary,
        max_events=MATRIX_MAX_EVENTS,
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


@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_SPECS))
def test_sharded_matches_unsharded_counter_run(protocol, adversary):
    """The shards × seeds matrix for one protocol × adversary cell.

    Every shard count reproduces the default run.  ``"auto"`` keeps a
    network this small on the interpreter whatever ``shards`` says, so the
    sharded engine is checked under ``backend="vectorized"`` against the
    unsharded batched run (most cells stop at the event budget, and a
    truncated batched run stops at bucket granularity).
    """
    session = Simulation()
    for seed in SEEDS:
        spec = _spec(protocol, adversary, seed)
        reference = session.simulate(spec, raise_on_timeout=False)
        for shards in SHARD_COUNTS[1:]:
            candidate = session.simulate(
                spec.replace(shards=shards), raise_on_timeout=False
            )
            assert _identity(candidate) == _identity(reference), (
                f"{protocol}/{adversary}/seed={seed}: shards={shards} "
                f"diverged from the default run"
            )
        batched = spec.replace(backend="vectorized", shards=1)
        unsharded = session.simulate(batched, raise_on_timeout=False)
        for shards in SHARD_COUNTS[1:]:
            sharded = session.simulate(
                batched.replace(shards=shards), raise_on_timeout=False
            )
            assert _identity(sharded) == _identity(unsharded), (
                f"{protocol}/{adversary}/seed={seed}: shards={shards} "
                f"diverged from the unsharded run"
            )
            assert sharded.metadata["backend_mode"] == "sharded"
            assert sharded.metadata["shard_count"] == shards
            # One f64 arrival + one i64 letter per directed cut edge.
            assert sharded.metadata["halo_bytes_per_bucket"] == (
                2 * sharded.metadata["cut_edges"] * 16
            )
    assert not leaked_segments()


def test_auto_stays_interpreted_on_small_networks_for_every_shard_count():
    """A truncated ``"auto"`` run below the batching threshold is the same
    interpreted run with or without ``shards=``."""
    session = Simulation()
    spec = _spec("mis", "uniform", 11, max_events=500)
    unsharded = session.simulate(spec.replace(shards=None), raise_on_timeout=False)
    sharded = session.simulate(spec.replace(shards=2), raise_on_timeout=False)
    assert not unsharded.reached_output
    assert _identity(sharded) == _identity(unsharded)
    assert sharded.metadata["backend"] == "python"
    assert sharded.metadata["shard_count"] == 1
    assert "shards=2 dropped" in sharded.metadata["backend_reason"]


def test_deterministic_protocol_matches_the_interpreter_bitwise():
    """Where the protocol never draws (single-option transitions), the
    sharded run equals the *interpreter* too."""
    session = Simulation()
    base = _spec("broadcast", "uniform", 3, max_events=2_000_000)
    interpreted = session.simulate(
        base.replace(backend="python"), raise_on_timeout=False
    )
    sharded = session.simulate(base.replace(shards=2), raise_on_timeout=False)
    assert interpreted.reached_output and sharded.reached_output
    assert _identity(sharded) == _identity(interpreted)


@pytest.mark.parametrize("adversary", ["synchronous", "uniform"])
def test_draw_bearing_protocol_matches_the_interpreter_bitwise(adversary):
    """Compiled MIS draws a coin on most steps; with one pick stream in every
    engine a terminating run equals the interpreter for every shards value."""
    session = Simulation()
    base = _spec("mis", adversary, 7, nodes=8, max_events=2_000_000)
    interpreted = session.simulate(base.replace(backend="python"))
    assert interpreted.reached_output
    for shards in (None, 1, 2):
        batched = session.simulate(base.replace(backend="vectorized", shards=shards))
        assert _identity(batched) == _identity(interpreted), f"shards={shards}"


def test_shard_count_capped_at_node_count():
    session = Simulation()
    small = _spec("mis", "uniform", 1, nodes=3, max_events=100_000, backend="vectorized")
    result = session.simulate(small.replace(shards=16), raise_on_timeout=False)
    reference = session.simulate(small.replace(shards=1), raise_on_timeout=False)
    assert _identity(result) == _identity(reference)
    assert result.metadata["backend_mode"] == "sharded"
    assert result.metadata["shard_count"] <= 3
    assert not leaked_segments()


def test_engine_direct_parity_and_context_manager():
    """Engine-level check without the session: same arrays, same everything."""
    graph = generators.gnp_random_graph(NODES, 0.12, seed=5)
    protocol = compile_to_asynchronous(MISProtocol())
    reference = VectorizedAsynchronousEngine(graph, protocol, seed=17).run(
        max_events=2_000_000, raise_on_timeout=False
    )
    with ShardedAsyncEngine(graph, protocol, seed=17, shards=3) as engine:
        sharded = engine.run(max_events=2_000_000, raise_on_timeout=False)
    assert _identity(sharded) == _identity(reference)
    assert not leaked_segments()


def test_engine_is_single_run_and_close_is_idempotent():
    graph = generators.gnp_random_graph(16, 0.15, seed=2)
    protocol = compile_to_asynchronous(MISProtocol())
    engine = ShardedAsyncEngine(graph, protocol, seed=4, shards=2)
    engine.run(max_events=50_000, raise_on_timeout=False)
    with pytest.raises(ExecutionError, match="single-run"):
        engine.run(max_events=50_000, raise_on_timeout=False)
    engine.close()
    engine.close()  # second close must be a no-op
    assert not leaked_segments()


def test_worker_crash_surfaces_and_leaks_nothing():
    """SIGKILLing a shard worker aborts the run loudly, not with a hang."""
    graph = generators.gnp_random_graph(600, 0.01, seed=9)
    protocol = compile_to_asynchronous(MISProtocol())
    engine = ShardedAsyncEngine(
        graph, protocol, seed=9, shards=2, barrier_timeout=20.0
    )

    def _assassinate():
        deadline = time.monotonic() + 10.0
        while not engine._pool.workers and time.monotonic() < deadline:
            time.sleep(0.01)
        if engine._pool.workers:
            os.kill(engine._pool.workers[0].pid, signal.SIGKILL)

    killer = threading.Thread(target=_assassinate)
    killer.start()
    try:
        with pytest.raises(ExecutionError, match="shard worker|barrier broke"):
            engine.run(max_events=50_000_000, raise_on_timeout=False)
    finally:
        killer.join()
        engine.close()
    assert not leaked_segments()
