"""Unit tests for the Simulation session: caching, repeat/sweep, seeds."""

import pytest

from repro.analysis.sweep import SweepRecord, SweepResult
from repro.api import RunSpec, SeedPolicy, Simulation
from repro.api.executor import shard_repetition_specs
from repro.core.errors import SpecError
from repro.graphs.generators import gnp_random_graph, path_graph
from repro.protocols.broadcast import BroadcastProtocol
from repro.protocols.mis import MISProtocol


class TestTableCache:
    def test_simulate_twice_hits_the_cache(self):
        session = Simulation()
        spec = RunSpec(protocol="mis", nodes=16, seed=1)
        first = session.simulate(spec)
        second = session.simulate(spec)
        assert first.summary_fields() == second.summary_fields()
        assert session.cache_misses == 1
        assert session.cache_hits == 1

    def test_table_reused_across_repeat_and_sweep(self):
        session = Simulation()
        spec = RunSpec(protocol="mis", nodes=12, seed=2)
        session.repeat(spec, 2)  # one lookup per repetition
        assert session.cache_misses == 1 and session.cache_hits == 1
        session.sweep(spec, sizes=[8], families=["gnp_sparse"], repetitions=1)
        assert session.cache_hits == 2  # the sweep reused the repeat's table
        session.simulate(spec)
        assert session.cache_hits == 3
        assert session.cache_info()["entries"] == 1

    def test_distinct_workloads_get_distinct_entries(self):
        session = Simulation()
        session.simulate(RunSpec(protocol="mis", nodes=8, seed=1))
        session.simulate(RunSpec(protocol="coloring", nodes=8, graph="path", seed=1))
        assert session.cache_info() == {"hits": 0, "misses": 2, "entries": 2}

    def test_object_path_cache_key(self):
        session = Simulation()
        graph = gnp_random_graph(12, 0.3, seed=1)
        keyed = session.run_protocol(
            graph, MISProtocol(), seed=3, backend="auto", cache_key="shared"
        )
        again = session.run_protocol(
            graph, MISProtocol(), seed=3, backend="auto", cache_key="shared"
        )
        plain = session.run_protocol(graph, MISProtocol(), seed=3, backend="auto")
        assert keyed.summary_fields() == again.summary_fields() == plain.summary_fields()
        assert session.cache_hits == 1 and session.cache_misses == 1

    def test_list_valued_params_produce_hashable_workload_keys(self):
        # workload_key must freeze JSON-style param values recursively; a
        # list/dict param used to crash the session cache with an
        # unhashable key before reaching the protocol factory.
        spec = RunSpec(
            protocol="mis",
            protocol_params={"weights": [1, 2], "options": {"nested": [3]}},
        )
        assert hash(spec.workload_key()) is not None
        equal = RunSpec(
            protocol="mis",
            protocol_params={"options": {"nested": [3]}, "weights": [1, 2]},
        )
        assert equal.workload_key() == spec.workload_key()

    def test_session_precompile_keeps_the_real_selection_reason(self):
        # A session precompiles on the caller's behalf; the reported reason
        # must stay the authoritative selection reason, not "caller-supplied".
        session = Simulation()
        result = session.simulate(RunSpec(protocol="mis", nodes=12, seed=1, backend="auto"))
        assert "session-precompiled" in result.metadata["backend_reason"]
        assert "caller-supplied" not in result.metadata["backend_reason"]
        repeats = session.repeat(RunSpec(protocol="mis", nodes=12, seed=1, backend="auto"), 2)
        assert all(
            "session-precompiled" in r.metadata["backend_reason"] for r in repeats
        )

    def test_auto_downgrade_reason_is_reported_per_run(self):
        # An "auto" downgrade discovered at precompile time must be visible
        # on every run that used the bundle — no silent fallback.
        from repro.core.protocol import TransitionChoice

        class Unbounded(BroadcastProtocol):
            def initial_state(self, input_value=None):
                return 0

            def query_letter(self, state):
                return "TOKEN"

            def options(self, state, count):
                return (TransitionChoice(int(state) + 1, "TOKEN"),)

        session = Simulation()
        result = session.run_protocol(
            path_graph(3),
            Unbounded(),
            seed=1,
            backend="auto",
            max_rounds=5,
            raise_on_timeout=False,
            cache_key="unbounded-tmp",
        )
        assert result.metadata["backend"] == "python"
        assert "fell back" in result.metadata["backend_reason"]

    def test_runner_entries_are_not_spec_runnable(self):
        session = Simulation()
        with pytest.raises(SpecError, match="not spec-runnable"):
            session.simulate(RunSpec(protocol="matching", nodes=8))


class TestCacheAccounting:
    """Hit/miss bookkeeping across every execution path, pooled included.

    Invariant: every repetition / sweep cell / simulate call performs exactly
    one table lookup, wherever it runs.  Serial lookups hit the parent cache
    directly; pooled lookups happen in worker sessions whose deltas the
    executor folds back (``absorb_worker_cache``), so ``hits + misses``
    equals the number of units of work either way.  ``entries`` counts
    parent-resident tables only — worker tables die with the pool.
    """

    def test_serial_trio_accounting(self):
        session = Simulation()
        spec = RunSpec(protocol="mis", nodes=10, seed=1)
        session.simulate(spec)                                   # 1 lookup
        session.repeat(spec, 3)                                  # 3 lookups
        session.sweep(spec, sizes=[8], repetitions=2)            # 2 lookups
        assert session.cache_info() == {"hits": 5, "misses": 1, "entries": 1}

    def test_pooled_repeat_aggregates_worker_counters(self):
        session = Simulation()
        spec = RunSpec(protocol="mis", nodes=10, seed=1)
        session.repeat(spec, 4, workers=2)
        info = session.cache_info()
        assert info["hits"] + info["misses"] == 4
        # The executor hands the parent-compiled table to the pool
        # initializer, so the workers adopt it instead of re-compiling:
        # every per-task lookup is a hit, and the bundle is parent-resident.
        assert info["misses"] == 0
        assert info["entries"] == 1

    def test_pooled_sweep_aggregates_worker_counters(self):
        session = Simulation()
        sweep = session.sweep(
            RunSpec(protocol="mis", seed=1),
            sizes=[6, 8],
            repetitions=2,
            workers=2,
        )
        info = session.cache_info()
        assert info["hits"] + info["misses"] == len(sweep.records) == 4
        # Published tables again: the sweep's one distinct workload is
        # compiled once in the parent and adopted by every worker.
        assert info["misses"] == 0

    def test_pooled_dynamic_sweep_adopts_the_published_table(self):
        # Dynamic cells run on the synchronous engines and look up the sync
        # bundle; the parent publishes it, so no worker compiles its own.
        session = Simulation()
        sweep = session.sweep(
            RunSpec(protocol="mis", seed=1, environment="dynamic", churn="burst"),
            sizes=[6, 8],
            repetitions=2,
            workers=2,
        )
        info = session.cache_info()
        assert info["hits"] + info["misses"] == len(sweep.records) == 4
        assert info["misses"] == 0
        assert info["entries"] == 1

    def test_pooled_async_sweep_adopts_the_published_bundle(self):
        # Asynchronous cells look up the async bundle (the synchronizer-
        # compiled protocol and its lazy table); the parent publishes it
        # too, so no worker compiles its own.
        session = Simulation()
        sweep = session.sweep(
            RunSpec(protocol="coloring", graph="random_tree", seed=1, environment="async"),
            sizes=[8, 10],
            repetitions=2,
            workers=2,
        )
        assert len(sweep.records) == 4
        assert session.cache_info() == {"hits": 4, "misses": 0, "entries": 1}

    def test_pooled_async_repeat_adopts_the_published_bundle(self):
        session = Simulation()
        spec = RunSpec(protocol="mis", nodes=10, seed=1, environment="async")
        pooled = session.repeat(spec, 3, workers=2)
        serial = Simulation().repeat(spec, 3)
        assert [r.summary_fields() for r in pooled] == [r.summary_fields() for r in serial]
        assert session.cache_info() == {"hits": 3, "misses": 0, "entries": 1}

    def test_serial_async_sweep_counts_one_lookup_per_cell(self):
        session = Simulation()
        sweep = session.sweep(
            RunSpec(protocol="mis", nodes=8, seed=1, environment="async"),
            sizes=[6],
            adversaries=["uniform", "bursty"],
            repetitions=2,
        )
        info = session.cache_info()
        assert info["hits"] + info["misses"] == len(sweep.records) == 4
        assert info == {"hits": 3, "misses": 1, "entries": 1}

    def test_pooled_and_serial_counters_describe_the_same_workload(self):
        spec = RunSpec(protocol="coloring", nodes=10, seed=2)
        serial = Simulation()
        serial.repeat(spec, 3)
        serial.sweep(spec, sizes=[8], repetitions=2)
        pooled = Simulation()
        pooled.repeat(spec, 3, workers=2)
        pooled.sweep(spec, sizes=[8], repetitions=2, workers=2)
        # Both pay one lookup per unit of work — 3 repetitions + 2 cells —
        # whether the parent or a worker task made it.
        s, p = serial.cache_info(), pooled.cache_info()
        assert s["hits"] + s["misses"] == 5
        assert p["hits"] + p["misses"] == 5

    @pytest.mark.parametrize(
        "extra",
        [{}, {"environment": "dynamic", "churn": "burst"}, {"environment": "async"}],
        ids=["sync", "dynamic", "async"],
    )
    def test_serial_and_pooled_repeat_look_up_once_per_repetition(self, extra):
        # Serial repetitions run through the same per-spec path as pooled
        # ones, in every environment, so both count three lookups.
        spec = RunSpec(protocol="mis", nodes=10, seed=1, **extra)
        serial = Simulation()
        serial.repeat(spec, 3)
        pooled = Simulation()
        pooled.repeat(spec, 3, workers=2)
        s, p = serial.cache_info(), pooled.cache_info()
        assert s["hits"] + s["misses"] == p["hits"] + p["misses"] == 3

    def test_cache_key_reuse_across_object_level_runs(self):
        session = Simulation()
        graph = gnp_random_graph(10, 0.3, seed=1)
        for _ in range(3):
            session.run_protocol(
                graph, MISProtocol(), seed=2, backend="auto", cache_key="shared"
            )
        assert session.cache_info() == {"hits": 2, "misses": 1, "entries": 1}
        # A different requested backend is a different workload.
        session.run_protocol(
            graph, MISProtocol(), seed=2, backend="python", cache_key="shared"
        )
        assert session.cache_info()["entries"] == 2


class TestRepeat:
    def test_matches_legacy_repeat_synchronous(self):
        spec = RunSpec(
            protocol="mis", nodes=20, graph="gnp_sparse", seed=5, graph_seed=4,
            backend="auto",
        )
        facade = Simulation().repeat(spec, 3)
        # The historical repetition loop: one graph, seeds base_seed + i.
        graph = spec.build_graph()
        policy = SeedPolicy(5)
        legacy = [
            Simulation().run_protocol(
                graph, MISProtocol(), seed=policy.repetition_seed(i), backend="auto"
            )
            for i in range(3)
        ]
        assert [r.summary_fields() for r in facade] == [
            r.summary_fields() for r in legacy
        ]
        assert [r.seed for r in facade] == [5, 6, 7]

    def test_repeat_results_carry_the_metadata_of_their_derived_specs(self):
        # Every repetition reports the selection a simulate() of its own
        # derived spec reports — a sharded run keeps the sharded engine's
        # reason instead of the session's precompile label.
        spec = RunSpec(
            protocol="mis", graph="random_tree", nodes=256, seed=3, shards=2,
            backend="vectorized",
        )
        results = Simulation().repeat(spec, 2)
        for result, run in zip(results, shard_repetition_specs(spec, 2)):
            assert result.metadata == Simulation().simulate(run).metadata
            assert "sharded" in result.metadata["backend_reason"]

    def test_async_repeat_derives_seeds(self):
        session = Simulation()
        spec = RunSpec(
            protocol="mis",
            nodes=8,
            graph="gnp_dense",
            seed=3,
            environment="async",
            adversary="uniform",
        )
        results = session.repeat(spec, 2)
        assert [r.seed for r in results] == [3, 4]
        assert all(r.reached_output for r in results)

    def test_repeat_forwards_inputs(self):
        session = Simulation()
        spec = RunSpec(
            protocol="broadcast", nodes=6, graph="path", seed=1, inputs={"source": 2}
        )
        results = session.repeat(spec, 2)
        assert all(r.reached_output for r in results)


class TestSweep:
    def test_matches_legacy_sweep_protocol(self):
        families = {"gnp_sparse": lambda n, seed=None: gnp_random_graph(n, 0.2, seed)}
        # The historical sweep loop: per-cell seeds from SeedPolicy, the
        # graph built from the cell's graph seed, the run on its run seed.
        policy = SeedPolicy(7)
        records = []
        for family, factory in families.items():
            for size in [8, 16]:
                for repetition in range(2):
                    seeds = policy.sweep_cell(family, size, repetition)
                    graph = factory(size, seeds.graph_seed)
                    result = Simulation().run_protocol(
                        graph, MISProtocol(), seed=seeds.run_seed, backend="auto",
                        raise_on_timeout=False,
                    )
                    records.append(SweepRecord(
                        family=family,
                        size=size,
                        repetition=repetition,
                        graph_nodes=graph.num_nodes,
                        graph_edges=graph.num_edges,
                        cost=result.cost,
                        rounds=result.rounds,
                        reached_output=result.reached_output,
                        valid=result.reached_output,
                    ))
        legacy = SweepResult(protocol_name=MISProtocol().name, records=records)
        session = Simulation()
        facade = session.sweep(
            RunSpec(protocol="mis", seed=7, backend="auto"),
            families=families,
            sizes=[8, 16],
            repetitions=2,
        )
        assert facade.protocol_name == legacy.protocol_name
        assert facade.records == legacy.records

    def test_registry_family_names_resolve(self):
        session = Simulation()
        result = session.sweep(
            RunSpec(protocol="coloring", seed=1),
            families=["path", "star"],
            sizes=[8],
            repetitions=1,
        )
        assert result.families() == ["path", "star"]
        assert result.all_valid()

    def test_default_family_and_validator_come_from_the_registry(self):
        session = Simulation()
        result = session.sweep(
            RunSpec(protocol="mis", seed=1), sizes=[8], repetitions=1
        )
        assert result.families() == ["gnp_sparse"]
        assert result.all_valid()

    def test_async_sweep_produces_time_unit_records(self):
        # Async sweeps (families × sizes × adversaries) subsumed the former
        # "synchronous environment only" restriction.
        session = Simulation()
        spec = RunSpec(protocol="mis", seed=1, environment="async")
        sweep = session.sweep(spec, sizes=[8], repetitions=1)
        assert len(sweep.records) == 1
        assert sweep.records[0].rounds is None
        assert sweep.all_valid()

    def test_adversaries_axis_rejected_for_sync_spec(self):
        session = Simulation()
        with pytest.raises(SpecError, match="environment='async'"):
            session.sweep(
                RunSpec(protocol="mis", seed=1), sizes=[8], adversaries=["uniform"]
            )

    def test_inputs_rejected_for_an_input_free_protocol(self):
        # Sweep cells build their inputs like simulate() and repeat() do, so
        # a sweep refuses inputs the protocol cannot take.
        spec = RunSpec(protocol="mis", seed=1, inputs={"source": 1})
        with pytest.raises(SpecError, match="takes no inputs"):
            Simulation().sweep(spec, sizes=[6], repetitions=2)


class TestSeedDerivation:
    def test_seed_policy_is_the_single_derivation_source(self):
        # The seeds repeat() and sweep() run with must equal SeedPolicy's,
        # proving every call path routes through the centralised helper.
        policy = SeedPolicy(base_seed=10)
        spec = RunSpec(
            protocol="broadcast", graph="path", nodes=5, seed=10, inputs={"source": 0},
            backend="python",
        )
        results = Simulation().repeat(spec, 3)
        assert [r.seed for r in results] == [policy.repetition_seed(i) for i in range(3)]
        families = {"path": lambda n, seed=None: path_graph(n)}
        sweep = Simulation().sweep(
            RunSpec(protocol="mis", seed=10), families=families, sizes=[6], repetitions=1
        )
        assert sweep.records[0].reached_output
