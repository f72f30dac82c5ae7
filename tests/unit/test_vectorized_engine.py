"""Unit tests for state/letter interning and the vectorized batch engine."""

import numpy as np
import pytest

from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.interning import Interner, tabulate_protocol
from repro.graphs import Graph, cycle_graph, path_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol
from repro.protocols.mis import MIS_STATES, MISProtocol
from repro.scheduling.sync_engine import run_synchronous
from repro.scheduling.vectorized_engine import (
    VectorizedEngine,
    compile_protocol,
    run_vectorized,
)


class _UnboundedCounterProtocol(BroadcastProtocol):
    """A lazy protocol whose state set grows without bound.

    Legal for the interpreter (it just keeps counting) but impossible to
    tabulate — the closure hits ``max_states`` and the vectorized backend
    must refuse it.
    """

    def initial_state(self, input_value=None) -> int:
        return 0

    def query_letter(self, state) -> str:
        return "TOKEN"

    def options(self, state, count):
        from repro.core.protocol import TransitionChoice

        return (TransitionChoice(int(state) + 1, "TOKEN"),)

    def is_output_state(self, state) -> bool:
        return False


class TestInterner:
    def test_ids_are_dense_and_first_seen_ordered(self):
        interner = Interner(["a", "b"])
        assert interner.id_of("a") == 0
        assert interner.id_of("b") == 1
        assert interner.intern("c") == 2
        assert interner.intern("a") == 0  # idempotent
        assert interner.values == ("a", "b", "c")
        assert len(interner) == 3
        assert "c" in interner and "d" not in interner

    def test_value_roundtrip(self):
        interner = Interner()
        ident = interner.intern(("tuple", 1))
        assert interner.value_of(ident) == ("tuple", 1)


class TestTabulation:
    def test_mis_tabulates_to_its_seven_states(self):
        tabulation = tabulate_protocol(MISProtocol())
        assert set(tabulation.states) <= set(MIS_STATES)
        # DOWN1 is the only root; every state it can reach is included.
        assert tabulation.states[0] == "DOWN1"
        assert tabulation.num_states == len(MIS_STATES)
        # Alphabet letters keep their fixed order and ids 0..|Σ|-1.
        assert tabulation.letters[: tabulation.alphabet_size] == MIS_STATES

    def test_output_mask_matches_protocol(self):
        protocol = MISProtocol()
        tabulation = tabulate_protocol(protocol)
        for state, flag in zip(tabulation.states, tabulation.output_mask):
            assert flag == protocol.is_output_state(state)

    def test_broadcast_strict_protocol_tabulates(self):
        tabulation = tabulate_protocol(BroadcastProtocol())
        assert set(tabulation.states) == {"IDLE", "SOURCE", "INFORMED"}
        # Strict protocols query exactly one letter per state.
        assert all(len(queried) == 1 for queried in tabulation.queried)

    def test_state_budget_is_enforced(self):
        with pytest.raises(ProtocolNotVectorizableError):
            tabulate_protocol(TreeColoringProtocol(), max_states=5)

    def test_cell_budget_is_enforced(self):
        with pytest.raises(ProtocolNotVectorizableError):
            tabulate_protocol(TreeColoringProtocol(), max_cells=10)

    def test_non_protocol_objects_are_rejected(self):
        with pytest.raises(ProtocolNotVectorizableError):
            tabulate_protocol(object())

    def test_under_declared_queried_letters_are_rejected(self):
        """A protocol whose options() reads an undeclared letter must not
        compile into a silently-wrong table."""

        class LyingProtocol(MISProtocol):
            def queried_letters(self, state):
                # Claims to ignore everything — but options() still reacts
                # to the delaying letters, the WIN letter, the UP counts…
                return ()

        with pytest.raises(ProtocolNotVectorizableError):
            tabulate_protocol(LyingProtocol())
        # auto still runs it (interpreted), producing the reference result.
        graph = cycle_graph(10)
        auto = run_synchronous(graph, LyingProtocol(), seed=2, backend="auto")
        reference = run_synchronous(graph, MISProtocol(), seed=2)
        assert auto.final_states == reference.final_states

    def test_observation_id_matches_enumeration_order(self):
        tabulation = tabulate_protocol(TreeColoringProtocol())
        b1 = tabulation.bounding + 1
        state_id = next(
            i for i, queried in enumerate(tabulation.queried) if len(queried) == 3
        )
        assert tabulation.observation_id(state_id, (1, 2, 3)) == (1 * b1 + 2) * b1 + 3
        with pytest.raises(ValueError):
            tabulation.observation_id(state_id, (1,))


class TestVectorizedEngine:
    def test_runs_mis_to_an_output_configuration(self):
        graph = cycle_graph(12)
        result = run_vectorized(graph, MISProtocol(), seed=3)
        assert result.reached_output
        assert set(result.final_states) <= {"WIN", "LOSE"}

    def test_rejects_non_protocol_objects(self):
        with pytest.raises(ExecutionError):
            VectorizedEngine(path_graph(2), object())

    def test_round_budget_can_raise_with_partial_result(self):
        graph = cycle_graph(9)
        with pytest.raises(OutputNotReachedError) as excinfo:
            run_vectorized(graph, MISProtocol(), seed=1, max_rounds=1)
        partial = excinfo.value.result
        assert partial is not None and partial.rounds == 1

    def test_observer_sees_every_round_with_decoded_states(self):
        seen = []
        graph = path_graph(6)
        engine = VectorizedEngine(
            graph,
            BroadcastProtocol(),
            seed=1,
            inputs=broadcast_inputs(0),
            observer=lambda index, states: seen.append((index, states)),
        )
        result = engine.run()
        assert len(seen) == result.rounds
        # Observer receives protocol state objects, not interned ids.
        assert all(
            state in ("IDLE", "SOURCE", "INFORMED")
            for _, states in seen
            for state in states
        )

    def test_shared_compiled_table_can_be_reused_across_graphs(self):
        compiled = compile_protocol(MISProtocol())
        for n in (6, 10, 15):
            result = run_vectorized(
                cycle_graph(n), MISProtocol(), seed=n, compiled=compiled
            )
            reference = run_synchronous(cycle_graph(n), MISProtocol(), seed=n)
            assert result.summary_fields() == reference.summary_fields()

    def test_isolated_nodes_count_messages_like_the_interpreter(self):
        # A graph with an isolated node: its transmissions go nowhere but
        # are still counted, exactly as PortTable.broadcast does.
        graph = Graph(4, [(0, 1), (1, 2)])
        vectorized = run_vectorized(graph, MISProtocol(), seed=2)
        interpreted = run_synchronous(graph, MISProtocol(), seed=2)
        assert vectorized.summary_fields() == interpreted.summary_fields()

    def test_empty_graph_falls_back_on_declared_input_states(self):
        result = run_synchronous(Graph(0, []), MISProtocol(), seed=0, backend="auto")
        assert result.reached_output and result.rounds == 0

    def test_synchronizer_compiled_protocol_also_vectorizes(self):
        from repro.compilers import compile_to_asynchronous

        graph = path_graph(4)
        results = [
            run_synchronous(
                graph,
                compile_to_asynchronous(BroadcastProtocol()),
                seed=1,
                inputs=broadcast_inputs(0),
                max_rounds=10_000,
                backend=backend,
            )
            for backend in ("python", "vectorized")
        ]
        assert results[0].summary_fields() == results[1].summary_fields()

    def test_backend_auto_falls_back_for_non_enumerable_protocols(self):
        protocol = _UnboundedCounterProtocol()
        graph = path_graph(3)
        with pytest.raises(ProtocolNotVectorizableError):
            run_synchronous(graph, _UnboundedCounterProtocol(), seed=1,
                            max_rounds=10, backend="vectorized",
                            raise_on_timeout=False)
        result = run_synchronous(graph, protocol, seed=1, max_rounds=10,
                                 backend="auto", raise_on_timeout=False)
        reference = run_synchronous(graph, _UnboundedCounterProtocol(), seed=1,
                                    max_rounds=10, raise_on_timeout=False)
        assert result.summary_fields() == reference.summary_fields()

    def test_csr_adjacency_shape(self):
        graph = Graph(4, [(0, 1), (1, 2), (0, 3)])
        indptr, indices = graph.csr_adjacency()
        assert list(indptr) == [0, 2, 4, 5, 6]
        assert list(indices) == [1, 3, 0, 2, 1, 0]
        assert len(indices) == 2 * graph.num_edges

    def test_csr_adjacency_is_cached_and_read_only(self):
        graph = Graph(4, [(0, 1), (1, 2), (0, 3)])
        first = graph.csr_adjacency()
        second = graph.csr_adjacency()
        assert first[0] is second[0] and first[1] is second[1]
        indptr, indices = first
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        assert not indptr.flags.writeable and not indices.flags.writeable
        with pytest.raises(ValueError):
            indices[0] = 99
