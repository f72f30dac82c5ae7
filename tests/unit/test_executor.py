"""Unit tests for the multiprocess RunSpec executor.

Determinism of the parity matrix lives in
``tests/integration/test_executor_parity.py``; this module covers the
executor's mechanics — worker-count resolution, shard derivation, ordered
merging, structured failure surfacing (poisoned cells, dead workers,
timeouts) and the serial fallback for unpicklable workloads.
"""

import os

import pytest

from repro.api import (
    GRAPH_FAMILIES,
    RunSpec,
    SeedPolicy,
    Simulation,
    effective_workers,
    run_specs,
    shard_repetition_specs,
)
from repro.api import executor
from repro.api.executor import budget_workers, resolve_spec_shards, run_shards
from repro.core.counters import engine_runs
from repro.core.errors import (
    ExecutorError,
    OutputNotReachedError,
    WorkerCrashError,
)
from repro.graphs.generators import path_graph


class TestEffectiveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert effective_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert effective_workers(None) == 2

    def test_serial_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_workers(None) == 1

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert effective_workers(None) == 1

    def test_floor_at_one(self):
        assert effective_workers(0) == 1
        assert effective_workers(-4) == 1


class TestBudgetWorkers:
    """The core-budget guard of ``workers= × shards=`` composition, on a
    two-core affinity mask."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_pool_capped_at_cores_per_shard_count(self):
        assert budget_workers(4, 2) == 1

    @pytest.mark.parametrize("shards", [None, 1])
    def test_unsharded_cells_leave_the_pool_unchanged(self, shards):
        assert budget_workers(4, shards) == 4

    @pytest.mark.parametrize("from_env", [False, True], ids=["explicit", "env"])
    def test_pooled_async_sweep_keeps_both_workers(self, monkeypatch, from_env):
        """An async run is one process whatever its ``shards``, so the
        guard leaves the sweep both of its workers."""
        pool_sizes = []
        execute_pooled = executor._execute_pooled

        def spy(tasks, workers, session):
            pool_sizes.append(workers)
            return execute_pooled(tasks, workers, session)

        monkeypatch.setattr(executor, "_execute_pooled", spy)
        if from_env:
            monkeypatch.setenv("REPRO_SHARDS", "2")
        spec = RunSpec(protocol="mis", seed=1, environment="async", shards=None if from_env else 2)
        result = Simulation().sweep(spec, sizes=[8], repetitions=2, workers=2)
        assert pool_sizes == [2]
        assert len(result.records) == 2


class TestResolveSpecShards:
    """``REPRO_SHARDS`` fills an unset ``shards`` of a spec whose run can
    start shard workers, and only of such a spec."""

    SPECS = {
        "sync": RunSpec(protocol="mis", nodes=16, seed=1),
        "dynamic": RunSpec(protocol="mis", nodes=16, seed=1, environment="dynamic", churn="burst"),
        "async": RunSpec(protocol="mis", nodes=16, seed=1, environment="async"),
    }

    @pytest.fixture(autouse=True)
    def two_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")

    @pytest.mark.parametrize("environment", ["sync", "dynamic"])
    def test_env_fills_unset_shards(self, environment):
        resolved = resolve_spec_shards(self.SPECS[environment])
        assert resolved.shards == 2
        assert run_shards(resolved) == 2

    def test_async_spec_stays_unsharded(self):
        assert resolve_spec_shards(self.SPECS["async"]).shards is None
        assert run_shards(self.SPECS["async"].replace(shards=2)) is None

    def test_interpreted_spec_stays_unsharded(self):
        spec = self.SPECS["sync"].replace(backend="python")
        assert resolve_spec_shards(spec).shards is None

    def test_explicit_shards_win_over_the_env(self):
        spec = self.SPECS["sync"].replace(shards=3)
        assert resolve_spec_shards(spec) is spec


class TestShardRepetitionSpecs:
    def test_seeds_follow_the_serial_rule(self):
        spec = RunSpec(protocol="mis", nodes=16, seed=5)
        shards = shard_repetition_specs(spec, 4)
        policy = SeedPolicy(5)
        assert [shard.seed for shard in shards] == [
            policy.repetition_seed(i) for i in range(4)
        ]

    def test_graph_seed_pinned_to_base(self):
        spec = RunSpec(protocol="mis", nodes=16, seed=5)
        shards = shard_repetition_specs(spec, 3)
        assert all(shard.graph_seed == 5 for shard in shards)
        explicit = shard_repetition_specs(spec.replace(graph_seed=9), 3)
        assert all(shard.graph_seed == 9 for shard in explicit)

    def test_shards_round_trip_through_dicts(self):
        spec = RunSpec(
            protocol="broadcast", nodes=8, graph="path", seed=2, inputs={"source": 1}
        )
        for shard in shard_repetition_specs(spec, 3):
            assert RunSpec.from_dict(shard.to_dict()) == shard


class TestRunSpecs:
    def test_results_merge_in_spec_order(self):
        specs = [RunSpec(protocol="mis", nodes=8, seed=seed) for seed in (4, 1, 3)]
        results = run_specs(specs, workers=2)
        assert [result.seed for result in results] == [4, 1, 3]

    def test_pooled_matches_serial(self):
        specs = [RunSpec(protocol="mis", nodes=12, seed=seed) for seed in range(3)]
        serial = run_specs(specs, workers=1)
        pooled = run_specs(specs, workers=2)
        assert [r.summary_fields() for r in serial] == [
            r.summary_fields() for r in pooled
        ]

    def test_poisoned_spec_surfaces_as_structured_error(self):
        specs = [RunSpec(protocol="mis", nodes=8, seed=0)] * 2 + [
            RunSpec(protocol="mis", nodes=8, seed=0, protocol_params={"bogus": 1})
        ]
        with pytest.raises(WorkerCrashError) as excinfo:
            run_specs(specs, workers=2)
        error = excinfo.value
        assert error.spec is not None and error.spec["protocol"] == "mis"
        assert "bogus" in (error.worker_traceback or "")

    def test_timeout_propagates_with_partial_result(self):
        specs = [RunSpec(protocol="mis", nodes=16, seed=0, max_rounds=1)] * 2
        with pytest.raises(OutputNotReachedError) as excinfo:
            run_specs(specs, workers=2, raise_on_timeout=True)
        assert excinfo.value.result is not None

    def test_worker_cache_counters_flow_into_the_session(self):
        session = Simulation()
        specs = [RunSpec(protocol="mis", nodes=8, seed=seed) for seed in range(4)]
        run_specs(specs, workers=2, session=session)
        info = session.cache_info()
        # Every task performs exactly one table lookup in its worker, and
        # the parent publishes the compiled table to the pool before any
        # task runs, so every worker lookup is a hit: no worker ever pays
        # the table build.  The parent's publication pre-pass compiles the
        # single distinct workload once (one cache entry) without counting
        # as a lookup — the counters track per-task traffic only.
        assert info["hits"] + info["misses"] == 4
        assert info["misses"] == 0
        assert info["entries"] == 1

    def test_pooled_engine_runs_count_in_the_dispatching_process(self, tmp_path):
        """Each task sends its worker's engine-run delta back, so a pooled
        sweep counts its engines where it was called; a warm pass runs none."""
        spec = RunSpec(protocol="mis", graph="random_tree", seed=3)
        cells = dict(sizes=[8, 12], repetitions=2, workers=2)
        before, before_sync = engine_runs(), engine_runs("sync")
        Simulation(store=tmp_path / "store").sweep(spec, **cells)
        assert engine_runs() - before == 4
        assert engine_runs("sync") - before_sync == 4
        before = engine_runs()
        warm = Simulation(store=tmp_path / "store")
        warm.sweep(spec, **cells)
        assert engine_runs() == before
        assert warm.store.stats()["hits"] == 4


class TestTablePublication:
    """The parent hands its compiled bundles to the pool initializer."""

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_a_fork_start_inherits_every_bundle(self):
        import multiprocessing

        bundles = {("sync", "a"): (lambda: None,), ("sync", "b"): (1, 2)}
        context = multiprocessing.get_context("fork")
        assert executor._portable_bundles(bundles, context) is bundles

    def test_a_spawn_start_leaves_an_unpicklable_bundle_to_the_worker(self):
        import multiprocessing

        bundles = {("sync", "a"): (lambda: None,), ("sync", "b"): (1, 2)}
        context = multiprocessing.get_context("spawn")
        assert executor._portable_bundles(bundles, context) == {("sync", "b"): (1, 2)}

    def test_a_pool_creates_no_shared_memory(self, monkeypatch):
        from multiprocessing import shared_memory

        created = []

        class Recording(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("name"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
        session = Simulation()
        specs = [RunSpec(protocol="mis", nodes=8, seed=seed) for seed in range(2)]
        run_specs(specs, workers=2, session=session)
        assert created == []
        assert session.cache_info()["misses"] == 0

    def test_a_bundle_that_fails_to_build_is_left_to_the_task(self):
        # The strict request fails in the task, with the spec attached,
        # not in the parent's publication pre-pass.
        session = Simulation()
        specs = [
            RunSpec(
                protocol="mis",
                nodes=8,
                seed=seed,
                backend="vectorized",
                protocol_params={"bogus": 1},
            )
            for seed in range(2)
        ]
        with pytest.raises(WorkerCrashError) as info:
            run_specs(specs, workers=2, session=session)
        assert info.value.spec["protocol_params"] == {"bogus": 1}
        assert session.cache_info()["entries"] == 0


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="worker-death injection needs the fork start method",
)
class TestWorkerDeath:
    def test_dead_worker_is_a_structured_error_not_a_hang(self):
        # Inject death through a graph family: graphs are built only inside
        # the executing worker, whereas protocol factories also run in the
        # parent's table-publication pre-pass.
        def lethal_family(n, seed=None):
            os._exit(13)

        GRAPH_FAMILIES.register("lethal-test-family", lethal_family)
        try:
            specs = [
                RunSpec(protocol="mis", graph="lethal-test-family", nodes=4, seed=0)
            ] * 2
            with pytest.raises(WorkerCrashError, match="worker process died"):
                run_specs(specs, workers=2)
        finally:
            GRAPH_FAMILIES.unregister("lethal-test-family")


class TestSerialFallback:
    def test_env_workers_fall_back_for_unpicklable_payloads(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        session = Simulation()
        sweep = session.sweep(
            RunSpec(protocol="mis", seed=1),
            families={"lam": lambda n, seed=None: path_graph(n)},
            sizes=[6],
            repetitions=2,
        )
        assert len(sweep.records) == 2
        assert sweep.all_valid()

    def test_explicit_workers_reject_unpicklable_payloads(self):
        session = Simulation()
        with pytest.raises(ExecutorError, match="picklable"):
            session.sweep(
                RunSpec(protocol="mis", seed=1),
                families={"lam": lambda n, seed=None: path_graph(n)},
                sizes=[6],
                repetitions=2,
                workers=2,
            )

    def test_single_task_stays_serial(self):
        session = Simulation()
        results = session.repeat(RunSpec(protocol="mis", nodes=8, seed=1), 1, workers=4)
        assert len(results) == 1
        # The parent session compiled (serial path), so the miss is local.
        assert session.cache_info()["entries"] == 1

    def test_fully_unseeded_specs_stay_serial(self):
        # seed=None + graph_seed=None builds a fresh random graph per
        # process, which no sharding can reproduce — the repeat must run
        # serially on one shared graph even when a pool was requested.
        session = Simulation()
        spec = RunSpec(protocol="mis", nodes=16, seed=None)
        results = session.repeat(spec, 3, workers=2)
        assert len({id(result.graph) for result in results}) == 1
        # A pinned graph seed makes the workload shardable again.
        pooled = Simulation().repeat(spec.replace(graph_seed=7), 3, workers=2)
        serial = Simulation().repeat(spec.replace(graph_seed=7), 3)
        assert [r.graph for r in pooled] == [r.graph for r in serial]

    def test_serial_failures_raise_the_original_exception(self):
        # The structured WorkerCrashError wrapping is for failures that
        # crossed a process boundary; in-process execution must surface
        # the original exception type for callers to catch.
        def exploding_validator(graph, result):
            raise ValueError("validator boom")

        with pytest.raises(ValueError, match="validator boom"):
            Simulation().sweep(
                RunSpec(protocol="mis", seed=1, environment="async"),
                sizes=[6],
                repetitions=1,
                validator=exploding_validator,
            )
