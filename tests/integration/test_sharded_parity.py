"""Sharded execution parity matrix and shared-memory hygiene.

The sharded backend's headline contract is *bitwise seed-identity*: every
engine draws from the one counter pick stream, so for any ``shards`` value
a run produces exactly the result of the python interpreter — same final
states, same outputs, same round and message counts, node for node.  This
module pins that contract across the full matrix of registered protocols ×
registered graph families × shard counts × seeds, and checks that no
``/dev/shm`` segment outlives an engine — including when a worker process
is killed mid-run.
"""

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

np_available = np  # imported eagerly; engines require numpy anyway

from repro.api import RunSpec, Simulation
from repro.core.errors import ExecutionError
from repro.graphs.generators import path_graph
from repro.protocols.mis import MISProtocol
from repro.scheduling.sharded_engine import (
    SEGMENT_PREFIX,
    ShardedVectorizedEngine,
    sharding_supported,
)
from repro.scheduling.vectorized_engine import VectorizedEngine

pytestmark = pytest.mark.skipif(
    not sharding_supported(), reason="platform lacks POSIX shared memory"
)

PROTOCOL_SPECS = {
    "mis": {},
    "coloring": {},
    "broadcast": {"inputs": {"source": 0}},
}
FAMILIES = ["path", "random_tree", "gnp_sparse"]
SHARD_COUNTS = [1, 2, 4]
SEEDS = [0, 7, 1234]
NODES = 24
#: Round budget for the matrix cells.  Some protocol × family pairings never
#: terminate (coloring needs a tree; broadcast needs a connected graph), and
#: parity on the *truncated* execution is just as strong a check as parity on
#: a terminated one — without paying 100k barrier-synced rounds for it.
MATRIX_MAX_ROUNDS = 256


def _leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}_*")


def _run(spec: RunSpec, session=None):
    session = session or Simulation()
    return session.simulate(spec, raise_on_timeout=False)


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_SPECS))
@pytest.mark.parametrize("family", FAMILIES)
def test_sharded_matches_unsharded_counter_run(protocol, family):
    """The full shards × seeds matrix for one protocol × family cell, each
    cell checked against the interpreter and the default unsharded run."""
    session = Simulation()
    for seed in SEEDS:
        base = RunSpec(
            protocol=protocol,
            nodes=NODES,
            graph=family,
            seed=seed,
            max_rounds=MATRIX_MAX_ROUNDS,
            **PROTOCOL_SPECS[protocol],
        )
        reference = _run(base.replace(backend="python"), session)
        assert _run(base, session).summary_fields() == reference.summary_fields()
        one_shard = _run(base.replace(shards=1), session)
        assert one_shard.summary_fields() == reference.summary_fields()
        for shards in SHARD_COUNTS[1:]:
            sharded = _run(base.replace(shards=shards), session)
            assert sharded.summary_fields() == reference.summary_fields(), (
                f"{protocol}/{family}/seed={seed}: shards={shards} diverged "
                f"from the interpreter"
            )
            assert sharded.metadata["backend_mode"] == "sharded"
            assert sharded.metadata["shard_count"] == shards
            assert sharded.metadata["halo_bytes_per_round"] == (
                2 * sharded.metadata["cut_edges"] * 8
            )
    assert not _leaked_segments()


def test_shard_count_capped_at_node_count():
    result = _run(RunSpec(protocol="mis", nodes=3, seed=1, shards=16))
    reference = _run(RunSpec(protocol="mis", nodes=3, seed=1, shards=1))
    assert result.summary_fields() == reference.summary_fields()
    assert result.metadata["shard_count"] <= 3
    assert not _leaked_segments()


def test_sharded_engine_close_is_idempotent_and_clean():
    graph = path_graph(32)
    engine = ShardedVectorizedEngine(graph, MISProtocol(), seed=3, shards=2)
    result = engine.run(max_rounds=1000)
    assert result.reached_output
    engine.close()
    engine.close()  # second close must be a no-op
    assert not _leaked_segments()


def test_context_manager_releases_segments():
    with ShardedVectorizedEngine(path_graph(20), MISProtocol(), seed=5, shards=2) as engine:
        engine.run(max_rounds=1000)
    assert not _leaked_segments()


def test_worker_crash_surfaces_and_leaks_nothing():
    """SIGKILLing a shard worker aborts the run loudly, not with a hang."""
    engine = ShardedVectorizedEngine(
        path_graph(64), MISProtocol(), seed=9, shards=2, barrier_timeout=20.0
    )
    try:
        engine.step_round()  # starts the workers
        victim = engine._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ExecutionError, match="shard worker"):
            for _ in range(1000):
                engine.step_round()
    finally:
        engine.close()
    assert not _leaked_segments()


def _exit_holding(barrier) -> None:
    barrier._cond.acquire()  # and never release it
    os._exit(0)


def test_abort_needs_no_lock_a_dead_worker_held():
    """A worker killed inside a barrier wait dies holding the barrier's lock;
    the abort path must still finish (it used to block on that lock)."""
    engine = ShardedVectorizedEngine(path_graph(16), MISProtocol(), seed=1, shards=2)
    try:
        engine.step_round()
        holder = engine._ctx.Process(target=_exit_holding, args=(engine._start_barrier,))
        holder.start()
        holder.join(timeout=10.0)
        assert holder.exitcode == 0
        os.kill(engine._workers[0].pid, signal.SIGKILL)
        engine._workers[0].join(timeout=10.0)
        errors = []

        def step():
            try:
                engine.step_round()
            except ExecutionError as exc:
                errors.append(exc)

        stepper = threading.Thread(target=step, daemon=True)
        stepper.start()
        stepper.join(timeout=30.0)
        assert not stepper.is_alive(), "abort blocked on a dead worker's barrier lock"
        assert errors and "shard worker" in str(errors[0])
    finally:
        engine.close()
    assert not _leaked_segments()


def test_lazy_protocol_falls_back_to_unsharded_counter_run():
    """A lazy-tabulation workload cannot shard; the fallback is recorded."""
    from repro.compilers.multiquery import lower_to_single_query
    from repro.scheduling.sync_engine import _run_synchronous

    lowered = lower_to_single_query(MISProtocol())
    assert lowered.tabulation_hint() == "lazy"
    result = _run_synchronous(
        path_graph(16), lowered, seed=2, backend="auto", shards=4,
        raise_on_timeout=False,
    )
    assert result.metadata["shard_count"] == 1
    assert result.metadata["backend_mode"] == "lazy"
    assert "shards=4 requested but" in result.metadata["backend_reason"]
    assert not _leaked_segments()


def test_sharded_runs_are_deterministic_across_calls():
    spec = RunSpec(protocol="mis", nodes=NODES, graph="gnp_sparse", seed=42, shards=4)
    first = _run(spec)
    second = _run(spec)
    assert first.summary_fields() == second.summary_fields()
    assert not _leaked_segments()


def test_sharded_engine_direct_parity_with_vectorized_counter_engine():
    """Engine-level check without the session: same arrays, same everything."""
    graph = path_graph(48)
    reference = VectorizedEngine(graph, MISProtocol(), seed=17).run(max_rounds=1000)
    engine = ShardedVectorizedEngine(graph, MISProtocol(), seed=17, shards=3)
    try:
        sharded = engine.run(max_rounds=1000)
    finally:
        engine.close()
    assert sharded.summary_fields() == reference.summary_fields()
    assert not _leaked_segments()
