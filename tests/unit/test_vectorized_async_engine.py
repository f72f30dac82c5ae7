"""Unit tests for the vectorized asynchronous engine and the lazy table."""

import numpy as np
import pytest

from repro.api import Simulation
from repro.core.counters import engine_runs
from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.graphs import path_graph, star_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol
from repro.scheduling.adversary import (
    AdversaryPolicy,
    AdversarySchedule,
    SynchronousAdversary,
    UniformRandomAdversary,
    default_adversary_suite,
)
from repro.scheduling.async_engine import (
    AUTO_VECTORIZE_MIN_NODES,
    _run_asynchronous,
)
from repro.scheduling.compiled import LazyStrictTable
from repro.scheduling.vectorized_async_engine import VectorizedAsynchronousEngine


class _ScalarOnlyAdversary(AdversaryPolicy):
    """A stateful custom policy: legitimate, but not batch-capable."""

    name = "scalar-only"

    def start(self, graph, rng):
        class Schedule(AdversarySchedule):
            def step_length(self, node, step):
                return rng.uniform(0.5, 1.5)

            def delivery_delay(self, sender, step, receiver):
                return rng.uniform(0.5, 1.5)

        return Schedule()


class TestLazyStrictTable:
    def test_rejects_extended_protocols(self):
        with pytest.raises(ProtocolNotVectorizableError):
            LazyStrictTable(MISProtocol())

    def test_interns_states_and_cells_on_demand(self):
        protocol = BroadcastProtocol()
        table = LazyStrictTable(protocol)
        assert table.num_states == 0
        quiet = table.state_id(protocol.initial_state(None))
        assert table.num_states == 1
        assert table.num_cells == 0
        offset, count = table.cell(quiet, 0)
        assert count >= 1
        next_state, emit = table.option(offset)
        assert 0 <= next_state < table.num_states
        assert table.num_cells == 1
        # Re-evaluating the same cell is free and stable.
        assert table.cell(quiet, 0) == (offset, count)

    def test_arrays_views_track_growth(self):
        protocol = BroadcastProtocol()
        table = LazyStrictTable(protocol)
        state = table.state_id(protocol.initial_state("source"))
        query, output_mask, cell_offset, cell_count, *_ = table.arrays()
        assert len(query) == table.num_states
        assert len(cell_offset) == table.num_states * (protocol.bounding.value + 1)
        table.ensure_cells(np.array([state]), np.array([0]))
        _, _, cell_offset, cell_count, *_ = table.arrays()
        assert cell_offset[state * (protocol.bounding.value + 1)] >= 0

    def test_state_cap_raises_not_vectorizable(self):
        protocol = BroadcastProtocol()
        table = LazyStrictTable(protocol, max_states=1)
        table.state_id(protocol.initial_state("source"))
        with pytest.raises(ProtocolNotVectorizableError):
            table.state_id(protocol.initial_state(None))


class TestEngineContract:
    def test_extended_protocols_are_rejected(self):
        with pytest.raises(ExecutionError):
            VectorizedAsynchronousEngine(path_graph(3), MISProtocol())

    def test_scalar_only_adversaries_are_rejected(self):
        with pytest.raises(ProtocolNotVectorizableError):
            VectorizedAsynchronousEngine(
                path_graph(3), BroadcastProtocol(), adversary=_ScalarOnlyAdversary()
            )

    def test_auto_backend_downgrades_scalar_only_adversaries(self):
        result = Simulation().run_protocol(
            path_graph(4),
            BroadcastProtocol(),
            environment="async",
            adversary=_ScalarOnlyAdversary(),
            seed=1,
            adversary_seed=2,
            inputs=broadcast_inputs(0),
            backend="auto",
        )
        assert result.reached_output
        assert result.metadata["backend"] == "python"

    def test_auto_backend_reruns_a_mid_run_table_refusal_on_the_interpreter(self):
        """A lazy table can refuse the protocol only once the run discovers
        a state past its budget; ``"auto"`` then reruns on the interpreter."""
        graph = path_graph(AUTO_VECTORIZE_MIN_NODES)
        protocol = BroadcastProtocol()
        run = dict(seed=1, adversary_seed=2, inputs=broadcast_inputs(0))
        table = LazyStrictTable(protocol, max_states=2)
        engine = VectorizedAsynchronousEngine(graph, protocol, table=table, **run)
        with pytest.raises(ProtocolNotVectorizableError):
            engine.run()
        table = LazyStrictTable(protocol, max_states=2)
        before = engine_runs()
        result = _run_asynchronous(graph, protocol, backend="auto", table=table, **run)
        assert engine_runs() == before + 1  # the rerun is part of the one run
        reference = _run_asynchronous(graph, protocol, backend="python", **run)
        assert result.metadata["backend"] == "python"
        assert result.metadata["backend_reason"].startswith("auto fell back to the interpreter")
        assert result.summary_fields() == reference.summary_fields()
        assert result.time_units == reference.time_units

    def test_vectorized_backend_rejects_observers(self):
        with pytest.raises(ExecutionError):
            Simulation().run_protocol(
                path_graph(3),
                BroadcastProtocol(),
                environment="async",
                inputs=broadcast_inputs(0),
                backend="vectorized",
                observer=lambda record: None,
            )

    def test_event_budget_can_raise(self):
        with pytest.raises(OutputNotReachedError):
            VectorizedAsynchronousEngine(
                path_graph(6),
                BroadcastProtocol(),
                inputs=broadcast_inputs(0),
                seed=1,
            ).run(max_events=3, raise_on_timeout=True)


class TestExecution:
    def test_broadcast_reaches_everyone_under_every_adversary(self):
        graph = star_graph(5)
        for adversary in default_adversary_suite():
            result = VectorizedAsynchronousEngine(
                graph,
                BroadcastProtocol(),
                inputs=broadcast_inputs(0),
                seed=2,
                adversary=adversary,
                adversary_seed=7,
            ).run(raise_on_timeout=True)
            assert result.reached_output
            assert all(result.outputs[node] for node in graph.nodes)
            assert result.metadata["backend"] == "vectorized"

    def test_time_units_are_normalised_by_the_largest_parameter(self):
        result = VectorizedAsynchronousEngine(
            path_graph(6),
            BroadcastProtocol(),
            inputs=broadcast_inputs(0),
            seed=1,
            adversary=SynchronousAdversary(),
        ).run(raise_on_timeout=True)
        assert result.time_units == pytest.approx(result.elapsed_time)
        assert result.metadata["max_parameter"] == pytest.approx(1.0)

    def test_same_seeds_reproduce_the_execution(self):
        runs = [
            VectorizedAsynchronousEngine(
                star_graph(6),
                BroadcastProtocol(),
                inputs=broadcast_inputs(0),
                seed=9,
                adversary=UniformRandomAdversary(),
                adversary_seed=17,
            ).run(raise_on_timeout=True)
            for _ in range(2)
        ]
        assert runs[0].time_units == runs[1].time_units
        assert runs[0].final_states == runs[1].final_states

    def test_fallback_adversary_seed_matches_the_interpreted_engine(self):
        """Without an explicit adversary_seed both backends derive the same
        deterministic one — so they still agree run-for-run."""
        results = [
            Simulation().run_protocol(
                path_graph(7),
                BroadcastProtocol(),
                environment="async",
                inputs=broadcast_inputs(0),
                seed=5,
                adversary=UniformRandomAdversary(),
                backend=backend,
                raise_on_timeout=False,
            )
            for backend in ("python", "vectorized")
        ]
        assert results[0].time_units == results[1].time_units
        assert results[0].outputs == results[1].outputs

    def test_shared_tables_amortise_across_runs(self):
        protocol = BroadcastProtocol()
        table = LazyStrictTable(protocol)
        first = VectorizedAsynchronousEngine(
            path_graph(6), protocol, inputs=broadcast_inputs(0), seed=1, table=table
        ).run(raise_on_timeout=True)
        cells_after_first = table.num_cells
        second = VectorizedAsynchronousEngine(
            path_graph(6), protocol, inputs=broadcast_inputs(0), seed=1, table=table
        ).run(raise_on_timeout=True)
        assert table.num_cells == cells_after_first
        assert first.time_units == second.time_units
