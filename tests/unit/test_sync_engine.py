"""Unit tests for the round-based synchronous engine."""

import pytest

from repro.api import RunSpec, Simulation
from repro.core.errors import ExecutionError, OutputNotReachedError
from repro.graphs import cycle_graph, gnp_random_graph, path_graph, star_graph
from repro.graphs.properties import eccentricity
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol
from repro.scheduling.sync_engine import (
    SynchronousEngine,
    precompile_tables,
    select_backend,
)


class TestBroadcastGroundTruth:
    """Broadcast has an exactly known round complexity: ecc(source) + 1."""

    @pytest.mark.parametrize("source", [0, 4, 9])
    def test_rounds_equal_eccentricity_plus_one_on_a_path(self, source):
        graph = path_graph(10)
        result = Simulation().run_protocol(
            graph, BroadcastProtocol(), inputs=broadcast_inputs(source), seed=1, backend="python"
        )
        assert result.rounds == eccentricity(graph, source) + 1
        assert all(result.outputs[node] for node in graph.nodes)

    def test_star_broadcast_from_centre_takes_two_rounds(self):
        graph = star_graph(7)
        result = Simulation().run_protocol(
            graph, BroadcastProtocol(), inputs=broadcast_inputs(0), seed=1, backend="python"
        )
        assert result.rounds == 2

    def test_messages_are_counted(self):
        graph = path_graph(4)
        result = Simulation().run_protocol(
            graph, BroadcastProtocol(), inputs=broadcast_inputs(0), seed=1, backend="python"
        )
        # Every node transmits the token exactly once.
        assert result.total_messages == 4


class TestEngineMechanics:
    def test_rejects_non_protocol_objects(self):
        with pytest.raises(ExecutionError):
            SynchronousEngine(path_graph(2), object())

    def test_same_seed_gives_identical_executions(self):
        graph = cycle_graph(15)
        first = Simulation().run_protocol(graph, MISProtocol(), seed=3, backend="python")
        second = Simulation().run_protocol(graph, MISProtocol(), seed=3, backend="python")
        assert first.final_states == second.final_states
        assert first.rounds == second.rounds

    def test_different_seeds_usually_differ(self):
        graph = cycle_graph(15)
        first = Simulation().run_protocol(graph, MISProtocol(), seed=3, backend="python")
        second = Simulation().run_protocol(graph, MISProtocol(), seed=4, backend="python")
        assert first.final_states != second.final_states or first.rounds != second.rounds

    def test_round_budget_returns_partial_result(self):
        graph = cycle_graph(9)
        result = Simulation().run_protocol(
            graph, MISProtocol(), seed=1, max_rounds=1, raise_on_timeout=False, backend="python"
        )
        assert not result.reached_output
        assert result.rounds == 1

    def test_round_budget_can_raise(self):
        graph = cycle_graph(9)
        with pytest.raises(OutputNotReachedError) as excinfo:
            Simulation().run_protocol(graph, MISProtocol(), seed=1, max_rounds=1, backend="python")
        assert excinfo.value.result is not None

    def test_observer_sees_every_round(self):
        rounds_seen = []
        graph = path_graph(6)
        engine = SynchronousEngine(
            graph,
            BroadcastProtocol(),
            seed=1,
            inputs=broadcast_inputs(0),
            observer=lambda index, states: rounds_seen.append((index, len(states))),
        )
        result = engine.run()
        assert len(rounds_seen) == result.rounds
        assert rounds_seen[0][0] == 1
        assert all(count == graph.num_nodes for _, count in rounds_seen)

    def test_states_property_reflects_progress(self):
        graph = path_graph(3)
        engine = SynchronousEngine(
            graph, BroadcastProtocol(), seed=1, inputs=broadcast_inputs(0)
        )
        assert engine.states == ("SOURCE", "IDLE", "IDLE")
        engine.step_round()
        assert engine.states[0] == "INFORMED"

    def test_in_output_configuration_flag(self):
        graph = path_graph(2)
        engine = SynchronousEngine(
            graph, BroadcastProtocol(), seed=1, inputs=broadcast_inputs(0)
        )
        assert not engine.in_output_configuration()
        engine.run()
        assert engine.in_output_configuration()

    def test_graph_and_protocol_accessors(self):
        graph = path_graph(2)
        protocol = BroadcastProtocol()
        engine = SynchronousEngine(graph, protocol, seed=0)
        assert engine.graph is graph
        assert engine.protocol is protocol

    def test_empty_graph_is_immediately_in_output_configuration(self):
        from repro.graphs import Graph

        result = Simulation().run_protocol(Graph(0, []), MISProtocol(), seed=0, backend="python")
        assert result.reached_output
        assert result.rounds == 0

    def test_total_node_steps_accounting(self):
        graph = path_graph(4)
        result = Simulation().run_protocol(
            graph, BroadcastProtocol(), inputs=broadcast_inputs(0), seed=1, backend="python"
        )
        assert result.total_node_steps == result.rounds * graph.num_nodes

    def test_mis_at_n_256_counts_its_messages(self):
        graph = gnp_random_graph(256, 4.0 / 256, seed=11)
        result = Simulation().run_protocol(graph, MISProtocol(), seed=14, backend="python")
        assert result.total_messages > 0

    def test_repeat_returns_one_result_per_repetition(self):
        spec = RunSpec(protocol="mis", graph="cycle", nodes=8, seed=10, backend="python")
        results = Simulation().repeat(spec, 4)
        assert len(results) == 4
        assert all(result.reached_output for result in results)

    def test_repeat_forwards_inputs(self):
        spec = RunSpec(
            protocol="broadcast",
            graph="path",
            nodes=6,
            seed=3,
            inputs={"source": 2},
            backend="python",
        )
        results = Simulation().repeat(spec, 2)
        # Without the source input every node would stay IDLE forever; the
        # forwarded input makes every repetition terminate and inform all.
        assert all(result.reached_output for result in results)
        assert all(
            result.rounds == eccentricity(path_graph(6), 2) + 1 for result in results
        )

    def test_repeat_forwards_raise_on_timeout(self):
        spec = RunSpec(
            protocol="mis", graph="cycle", nodes=9, seed=1, max_rounds=1, backend="python"
        )
        with pytest.raises(OutputNotReachedError):
            Simulation().repeat(spec, 1)
        results = Simulation().repeat(spec, 2, raise_on_timeout=False)
        assert all(not result.reached_output for result in results)

    def test_repeat_accepts_backend(self):
        spec = RunSpec(protocol="mis", graph="cycle", nodes=8, seed=10, backend="python")
        interpreted = Simulation().repeat(spec, 2)
        vectorized = Simulation().repeat(spec.replace(backend="vectorized"), 2)
        for left, right in zip(interpreted, vectorized):
            assert left.summary_fields() == right.summary_fields()

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ExecutionError):
            Simulation().run_protocol(path_graph(2), BroadcastProtocol(), seed=0, backend="gpu")

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_warm_start_rejects_a_letter_vector_of_the_wrong_length(self, engine):
        if engine == "python":
            engine_cls = SynchronousEngine
        else:
            from repro.scheduling.vectorized_engine import VectorizedEngine as engine_cls
        protocol = MISProtocol()
        with pytest.raises(ExecutionError, match="initial_letters must hold one letter per node"):
            engine_cls(
                path_graph(6), protocol, seed=1, initial_letters=[protocol.initial_letter] * 3
            )


class TestBackendSelection:
    def test_run_records_selection_metadata(self):
        result = Simulation().run_protocol(
            path_graph(6),
            BroadcastProtocol(),
            seed=0,
            inputs=broadcast_inputs(0),
            backend="auto",
        )
        assert result.metadata["backend"] == "vectorized"
        assert result.metadata["backend_mode"] == "eager"
        assert result.metadata["backend_reason"]

    def test_select_backend_matches_the_run(self):
        for backend in ("python", "vectorized", "auto"):
            selection = select_backend(path_graph(6), BroadcastProtocol(), backend)
            result = Simulation().run_protocol(
                path_graph(6),
                BroadcastProtocol(),
                seed=0,
                inputs=broadcast_inputs(0),
                backend=backend,
            )
            assert selection.requested == backend
            assert result.metadata["backend"] == selection.backend
            assert result.metadata["backend_mode"] == selection.mode

    def test_select_backend_reports_compiled_protocols_as_lazy(self):
        from repro.compilers import compile_to_asynchronous

        selection = select_backend(
            path_graph(4), compile_to_asynchronous(BroadcastProtocol()), "auto"
        )
        assert (selection.backend, selection.mode) == ("vectorized", "lazy")

    def test_select_backend_forwards_inputs(self):
        selection = select_backend(
            path_graph(4), BroadcastProtocol(), "auto", inputs=broadcast_inputs(0)
        )
        assert selection.backend == "vectorized"

    def test_precompile_tables_shapes(self):
        from repro.compilers import compile_to_asynchronous
        from repro.scheduling.compiled import LazyExtendedTable

        backend, compiled, table = precompile_tables(MISProtocol(), "auto")
        assert backend == "auto" and compiled is not None and table is None
        backend, compiled, table = precompile_tables(
            compile_to_asynchronous(BroadcastProtocol()), "auto"
        )
        assert backend == "auto" and compiled is None
        assert isinstance(table, LazyExtendedTable)
        assert precompile_tables(MISProtocol(), "python") == ("python", None, None)

    def test_cache_key_shares_one_warm_lazy_table(self):
        from repro.compilers import compile_to_asynchronous

        def factory():
            return compile_to_asynchronous(BroadcastProtocol())

        session = Simulation()
        shared = [
            session.run_protocol(
                path_graph(8),
                factory(),
                seed=5 + repetition,
                inputs=broadcast_inputs(0),
                backend="auto",
                raise_on_timeout=False,
                cache_key="compiled-broadcast",
            )
            for repetition in range(2)
        ]
        assert session.cache_info() == {"hits": 1, "misses": 1, "entries": 1}
        for repetition, result in enumerate(shared):
            reference = Simulation().run_protocol(
                path_graph(8),
                factory(),
                seed=5 + repetition,
                inputs=broadcast_inputs(0),
                backend="python",
                raise_on_timeout=False,
            )
            assert result.summary_fields() == reference.summary_fields()
            assert result.metadata["backend_mode"] == "lazy"

    def test_select_backend_reports_interpreter_fallback_reason(self):
        class Unbounded(BroadcastProtocol):
            def initial_state(self, input_value=None):
                return 0

            def query_letter(self, state):
                return "TOKEN"

            def options(self, state, count):
                from repro.core.protocol import TransitionChoice

                return (TransitionChoice(int(state) + 1, "TOKEN"),)

        selection = select_backend(path_graph(3), Unbounded(), "auto")
        assert (selection.backend, selection.mode) == ("python", "interpreted")
        assert "fell back" in selection.reason
