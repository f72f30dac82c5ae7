"""Cross-backend and store-replay parity of the dynamic environment.

The acceptance bar of the dynamic subsystem: a seeded dynamic run is
bitwise-reproducible across backends — identical final configuration AND
identical per-disturbance re-convergence metadata — and a warm result store
replays a whole churn sweep with zero engine executions.
"""

import pytest

from repro.api import RunSpec, Simulation
from repro.core import counters
from repro.protocols.coloring import coloring_from_result
from repro.protocols.mis import mis_from_result
from repro.verification.checkers import (
    is_maximal_independent_set,
    is_proper_coloring,
)

DYNAMIC_METADATA_KEYS = (
    "churn_policy",
    "disturbances",
    "initial_rounds",
    "reconvergence_rounds",
    "churn_events",
    "restart_counts",
)

# Forest-preserving churn for the tree protocol, flip churn for MIS.
WORKLOADS = [
    ("mis", "gnp_sparse", "burst", {"flips": 3, "disturbances": 3}),
    ("mis", "random_tree", "rewire", {"rewires": 2, "disturbances": 3}),
    ("mis", "gnp_sparse", "drift", {}),
    ("coloring", "random_tree", "burst", {"flips": 2, "disturbances": 2, "mode": "remove"}),
]


def _spec(protocol, family, churn, params, seed, backend="auto"):
    return RunSpec(
        protocol=protocol,
        graph=family,
        nodes=32,
        seed=seed,
        backend=backend,
        environment="dynamic",
        churn=churn,
        churn_params=params,
    )


class TestBackendParity:
    @pytest.mark.parametrize(
        "protocol,family,churn,params", WORKLOADS, ids=lambda w: str(w)
    )
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_python_and_vectorized_agree_bitwise(
        self, protocol, family, churn, params, seed
    ):
        session = Simulation()
        results = {
            backend: session.simulate(
                _spec(protocol, family, churn, params, seed, backend=backend)
            )
            for backend in ("python", "auto")
        }
        reference, candidate = results["python"], results["auto"]
        assert candidate.summary_fields() == reference.summary_fields()
        for key in DYNAMIC_METADATA_KEYS:
            assert candidate.metadata[key] == reference.metadata[key], key
        assert candidate.outputs == reference.outputs

    def test_solutions_verify_on_the_post_churn_snapshot(self):
        session = Simulation()
        result = session.simulate(_spec("mis", "gnp_sparse", "burst", {}, 5))
        assert is_maximal_independent_set(result.graph, mis_from_result(result))
        result = session.simulate(
            _spec(
                "coloring",
                "random_tree",
                "burst",
                {"mode": "remove", "flips": 2, "disturbances": 2},
                5,
            )
        )
        colors = coloring_from_result(result)
        assert is_proper_coloring(result.graph, colors)
        assert len(set(colors.values())) <= 3

    def test_zero_disturbance_run_equals_static_run(self):
        session = Simulation()
        static = session.simulate(
            RunSpec(protocol="mis", graph="gnp_sparse", nodes=32, seed=9)
        )
        dynamic = session.simulate(
            _spec("mis", "gnp_sparse", "burst", {"disturbances": 0}, 9)
        )
        assert dynamic.final_states == static.final_states
        assert dynamic.rounds == static.rounds
        assert dynamic.metadata["disturbances"] == 0
        assert dynamic.metadata["reconvergence_rounds"] == []


class TestRepeatAndSweepParity:
    def test_serial_and_pooled_repeat_agree(self):
        spec = _spec("mis", "gnp_sparse", "burst", {"flips": 2}, 13)
        serial = Simulation().repeat(spec, repetitions=4)
        pooled = Simulation().repeat(spec, repetitions=4, workers=2)
        assert [r.summary_fields() for r in serial] == [
            r.summary_fields() for r in pooled
        ]
        assert [r.metadata["reconvergence_rounds"] for r in serial] == [
            r.metadata["reconvergence_rounds"] for r in pooled
        ]

    def test_churn_axis_shares_the_base_graph(self):
        spec = _spec("mis", "gnp_sparse", "burst", {}, 21)
        sweep = Simulation().sweep(
            spec, sizes=[24], repetitions=2, churns=["burst", "rewire"]
        )
        assert sweep.churns() == ["burst", "rewire"]
        by_churn = {
            churn: sorted(
                (r.repetition, r.graph_nodes, r.graph_edges)
                for r in sweep.records
                if r.churn == churn
            )
            for churn in ("burst", "rewire")
        }
        # The graph seed ignores the policy: identical base graphs per cell.
        assert by_churn["burst"] == by_churn["rewire"]
        assert sweep.all_valid()


class TestStoreReplay:
    def test_warm_store_replays_churn_sweep_with_zero_engine_runs(self, tmp_path):
        spec = _spec("mis", "gnp_sparse", "burst", {"flips": 3}, 31)
        cold = Simulation(store=str(tmp_path)).sweep(
            spec, sizes=[20, 28], repetitions=2, churns=["burst", "rewire"]
        )
        before = counters.engine_runs("dynamic")
        warm = Simulation(store=str(tmp_path)).sweep(
            spec, sizes=[20, 28], repetitions=2, churns=["burst", "rewire"]
        )
        assert counters.engine_runs("dynamic") == before
        assert warm.records == cold.records

    def test_fetch_rebuilds_the_final_snapshot(self, tmp_path):
        spec = _spec("mis", "gnp_sparse", "burst", {"flips": 4}, 37)
        session = Simulation(store=str(tmp_path))
        original = session.simulate(spec)
        replayed = Simulation(store=str(tmp_path)).simulate(spec)
        assert sorted(replayed.graph.edges) == sorted(original.graph.edges)
        assert replayed.final_states == original.final_states
        assert is_maximal_independent_set(
            replayed.graph, mis_from_result(replayed)
        )


class TestShardedDynamicParity:
    """shards= composes with churn: every segment runs sharded, warm starts
    are carried into the shard workers, and the result is bitwise identical
    to the unsharded run and to the interpreter for every shard count."""

    @pytest.mark.parametrize(
        "protocol,family,churn,params",
        [
            ("mis", "gnp_sparse", "burst", {"flips": 3, "disturbances": 3}),
            ("mis", "gnp_sparse", "drift", {}),
        ],
        ids=lambda w: str(w),
    )
    def test_shard_counts_agree_bitwise(self, protocol, family, churn, params):
        session = Simulation()
        spec = _spec(protocol, family, churn, params, 23)
        reference = session.simulate(spec.replace(backend="python"))
        results = {
            shards: session.simulate(spec.replace(shards=shards))
            for shards in (None, 1, 2, 4)
        }
        for shards in (None, 1):
            candidate = results[shards]
            assert candidate.summary_fields() == reference.summary_fields()
            for key in DYNAMIC_METADATA_KEYS:
                assert candidate.metadata[key] == reference.metadata[key], key
        for shards in (2, 4):
            candidate = results[shards]
            assert candidate.summary_fields() == reference.summary_fields()
            for key in DYNAMIC_METADATA_KEYS:
                assert candidate.metadata[key] == reference.metadata[key], key
            assert candidate.outputs == reference.outputs
            assert candidate.metadata["backend_mode"] == "sharded"
            assert candidate.metadata["shard_count"] == shards
            # First-segment partition stats are stamped on the run.
            assert candidate.metadata["partition_strategy"] == "bfs"
            assert candidate.metadata["halo_bytes_per_round"] >= 0

    def test_deterministic_protocol_matches_the_interpreter_bitwise(self):
        """A sharded dynamic run equals the python interpreter exactly —
        segments, metadata and all — here for broadcast, whose transitions
        never draw."""
        session = Simulation()
        spec = RunSpec(
            protocol="broadcast",
            graph="random_tree",
            nodes=32,
            seed=41,
            environment="dynamic",
            churn="burst",
            churn_params={"flips": 2, "disturbances": 2, "mode": "add"},
            inputs={"source": 0},
        )
        interpreted = session.simulate(spec.replace(backend="python"))
        sharded = session.simulate(spec.replace(shards=2))
        assert sharded.summary_fields() == interpreted.summary_fields()
        for key in DYNAMIC_METADATA_KEYS:
            assert sharded.metadata[key] == interpreted.metadata[key], key
        assert sharded.outputs == interpreted.outputs


class TestStepAccounting:
    """``total_node_steps`` accumulates what each segment actually reports.

    The synchronous interpreter and the vectorized engines charge every
    node of the *running snapshot* one step per round, so a dynamic run
    must report exactly ``num_nodes * rounds`` summed segment by segment —
    not ``num_nodes * total_rounds`` computed once from the base graph,
    which silently assumes every snapshot keeps the base node count."""

    @pytest.mark.parametrize("seed", [3, 11, 59])
    def test_steps_equal_the_per_segment_sum_under_node_churn(self, seed):
        # 'drift' emits node_off/node_on events: the snapshot's *active*
        # topology changes between segments even though the node universe
        # is fixed.
        result = Simulation().simulate(
            _spec("mis", "gnp_sparse", "drift", {}, seed)
        )
        meta = result.metadata
        assert meta["churn_policy"] == "drift"
        rounds_per_segment = [meta["initial_rounds"], *meta["reconvergence_rounds"]]
        assert result.rounds == sum(rounds_per_segment)
        assert result.total_node_steps == result.graph.num_nodes * sum(
            rounds_per_segment
        )

    def test_messages_and_steps_accumulate_across_segments(self):
        result = Simulation().simulate(
            _spec("mis", "gnp_sparse", "burst", {"flips": 2, "disturbances": 2}, 7)
        )
        assert result.metadata["disturbances"] == 2
        assert result.total_node_steps == result.graph.num_nodes * result.rounds
        assert result.total_messages > 0
