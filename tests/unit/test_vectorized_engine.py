"""Unit tests for state/letter interning and the vectorized batch engine."""

from collections import Counter

import numpy as np
import pytest

from repro.api import Simulation
from repro.core.errors import (
    ExecutionError,
    OutputNotReachedError,
    ProtocolNotVectorizableError,
)
from repro.core.interning import Interner, tabulate_protocol
from repro.graphs import Graph, cycle_graph, path_graph, random_tree
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol
from repro.protocols.mis import MIS_STATES, MISProtocol
from repro.scheduling.vectorized_engine import (
    VectorizedEngine,
    compile_protocol,
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
        auto = Simulation().run_protocol(graph, LyingProtocol(), seed=2, backend="auto")
        reference = Simulation().run_protocol(graph, MISProtocol(), seed=2, backend="python")
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
        result = VectorizedEngine(graph, MISProtocol(), seed=3).run(raise_on_timeout=True)
        assert result.reached_output
        assert set(result.final_states) <= {"WIN", "LOSE"}

    def test_rejects_non_protocol_objects(self):
        with pytest.raises(ExecutionError):
            VectorizedEngine(path_graph(2), object())

    def test_round_budget_can_raise_with_partial_result(self):
        graph = cycle_graph(9)
        with pytest.raises(OutputNotReachedError) as excinfo:
            VectorizedEngine(graph, MISProtocol(), seed=1).run(max_rounds=1, raise_on_timeout=True)
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
            result = VectorizedEngine(
                cycle_graph(n), MISProtocol(), seed=n, compiled=compiled
            ).run(raise_on_timeout=True)
            reference = Simulation().run_protocol(
                cycle_graph(n), MISProtocol(), seed=n, backend="python"
            )
            assert result.summary_fields() == reference.summary_fields()

    def test_isolated_nodes_count_messages_like_the_interpreter(self):
        # A graph with an isolated node: its transmissions go nowhere but
        # are still counted, exactly as PortTable.broadcast does.
        graph = Graph(4, [(0, 1), (1, 2)])
        vectorized = VectorizedEngine(graph, MISProtocol(), seed=2).run(raise_on_timeout=True)
        interpreted = Simulation().run_protocol(graph, MISProtocol(), seed=2, backend="python")
        assert vectorized.summary_fields() == interpreted.summary_fields()

    def test_empty_graph_falls_back_on_declared_input_states(self):
        result = Simulation().run_protocol(Graph(0, []), MISProtocol(), seed=0, backend="auto")
        assert result.reached_output and result.rounds == 0

    def test_synchronizer_compiled_protocol_also_vectorizes(self):
        from repro.compilers import compile_to_asynchronous

        graph = path_graph(4)
        results = [
            Simulation().run_protocol(
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
            Simulation().run_protocol(
                graph, _UnboundedCounterProtocol(), seed=1, max_rounds=10,
                backend="vectorized", raise_on_timeout=False,
            )
        result = Simulation().run_protocol(
            graph, protocol, seed=1, max_rounds=10, backend="auto", raise_on_timeout=False
        )
        reference = Simulation().run_protocol(
            graph, _UnboundedCounterProtocol(), seed=1, max_rounds=10,
            raise_on_timeout=False, backend="python",
        )
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


class _CountingMIS(MISProtocol):
    """MIS counting its per-node hooks; a node given an input starts in ``DOWN2``."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()

    def initial_state(self, input_value=None) -> str:
        self.calls["initial_state"] += 1
        return "DOWN2" if input_value is not None else super().initial_state()

    def is_output_state(self, state) -> bool:
        self.calls["is_output_state"] += 1
        return super().is_output_state(state)

    def output_value(self, state) -> bool:
        self.calls["output_value"] += 1
        return super().output_value(state)


class TestPerNodeWork:
    """Init and result assembly cost array operations, not protocol calls per node."""

    N = 4096
    INPUTS = {5: "in", 17: "in", 4000: "in"}

    @pytest.fixture(scope="class")
    def graph(self):
        return random_tree(self.N, seed=11)

    def _interpreted(self, graph, **kwargs):
        return Simulation().run_protocol(
            graph, _CountingMIS(), seed=3, backend="python", **kwargs
        )

    def test_initial_state_runs_once_per_input_and_once_for_the_rest(self, graph):
        protocol = _CountingMIS()
        engine = VectorizedEngine(graph, protocol, seed=3, inputs=self.INPUTS)
        assert protocol.calls["initial_state"] <= 4
        states = engine.states
        assert [states[node] for node in self.INPUTS] == ["DOWN2"] * 3
        assert states.count("DOWN1") == self.N - 3
        result = engine.run(raise_on_timeout=True)
        reference = self._interpreted(graph, inputs=self.INPUTS)
        assert result.summary_fields() == reference.summary_fields()

    def test_outputs_are_read_once_per_table_state(self, graph):
        protocol = _CountingMIS()
        engine = VectorizedEngine(graph, protocol, seed=3, inputs=self.INPUTS)
        result = engine.run(raise_on_timeout=True)
        table_states = len(engine.compiled.states)
        assert protocol.calls["is_output_state"] <= table_states
        assert protocol.calls["output_value"] <= table_states
        reference = self._interpreted(graph, inputs=self.INPUTS)
        assert result.final_states == reference.final_states
        assert list(result.outputs.items()) == list(reference.outputs.items())

    def test_a_warm_start_from_equal_copies_maps_to_the_same_ids(self, graph):
        compiled = compile_protocol(MISProtocol())
        first = VectorizedEngine(graph, MISProtocol(), seed=3, compiled=compiled)
        for _ in range(4):
            first.step_round()
        states, letters = list(first.states), list(first.last_letters)
        assert len(set(states)) > 2  # a mixed configuration
        copies = ["".join(state) for state in states]
        assert copies == states
        assert not any(copy is state for copy, state in zip(copies, states))
        warm = [
            VectorizedEngine(
                graph, MISProtocol(), seed=9, compiled=compiled,
                initial_states=start, initial_letters=letters,
            )
            for start in (states, copies)
        ]
        assert np.array_equal(warm[0]._buffers["state"], warm[1]._buffers["state"])
        results = [engine.run(raise_on_timeout=True) for engine in warm]
        assert results[0].summary_fields() == results[1].summary_fields()

    def test_inputs_keyed_outside_the_graph_are_ignored(self, graph):
        protocol = _CountingMIS()
        outside = {-1: "in", self.N: "in", 10**30: "in", "7": "in", 2.5: "in"}
        result = VectorizedEngine(graph, protocol, seed=3, inputs=outside).run()
        assert protocol.calls["initial_state"] == 1
        plain = VectorizedEngine(graph, _CountingMIS(), seed=3).run()
        assert result.summary_fields() == plain.summary_fields()
        reference = self._interpreted(graph, inputs=outside)
        assert result.summary_fields() == reference.summary_fields()

    def test_a_warm_start_state_missing_from_the_table_is_refused(self):
        graph = path_graph(3)
        with pytest.raises(ProtocolNotVectorizableError) as excinfo:
            VectorizedEngine(
                graph, MISProtocol(), compiled=compile_protocol(MISProtocol()),
                initial_states=["DOWN1", "BOGUS", "DOWN1"],
            )
        assert str(excinfo.value) == (
            "initial state 'BOGUS' is missing from the compiled table; "
            "compile with roots covering all initial states"
        )
