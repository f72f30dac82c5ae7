"""Unit tests for the shared compiled-execution core (`scheduling.compiled`).

The eager :class:`CompiledProtocol` is covered by `test_vectorized_engine`
and the strict lazy table by `test_vectorized_async_engine`; this module
pins the contract of :class:`LazyExtendedTable` — the multi-letter lazy
table that lets the *synchronous* vectorized engine run synchronizer- and
multiquery-compiled protocols: on-demand growth, determinism, interpreter
equivalence and budget enforcement.
"""

import pytest

from repro.api import Simulation
from repro.compilers import compile_to_asynchronous, lower_to_single_query
from repro.core.alphabet import Observation, is_epsilon
from repro.core.errors import ProtocolNotVectorizableError
from repro.graphs import gnp_random_graph, path_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol
from repro.scheduling.compiled import LazyExtendedTable
from repro.scheduling.vectorized_engine import VectorizedEngine


class TestConstruction:
    def test_accepts_extended_and_strict_protocols(self):
        assert LazyExtendedTable(MISProtocol()).num_states == 0
        assert LazyExtendedTable(BroadcastProtocol()).num_states == 0

    def test_rejects_non_protocol_objects(self):
        with pytest.raises(ProtocolNotVectorizableError):
            LazyExtendedTable(object())

    def test_alphabet_letters_get_the_leading_ids(self):
        protocol = MISProtocol()
        table = LazyExtendedTable(protocol)
        assert table.alphabet_size == len(protocol.alphabet)
        for position, letter in enumerate(protocol.alphabet.letters):
            assert table.letters[position] == letter
        assert table.initial_letter_id == protocol.alphabet.index(protocol.initial_letter)


class TestOnDemandGrowth:
    def test_interning_allocates_cells_but_does_not_evaluate(self):
        protocol = MISProtocol()
        table = LazyExtendedTable(protocol)
        state_id = table.state_id(protocol.initial_state())
        arity = len(protocol.queried_letters(protocol.initial_state()))
        b1 = protocol.bounding.value + 1
        assert table.num_states >= 1
        assert table.num_allocated_cells >= b1**arity
        assert table.num_cells == 0  # nothing evaluated yet
        offset, count = table.cell(state_id, 0)
        assert count >= 1 and offset >= 0
        assert table.num_cells == 1  # exactly the queried cell materialised

    def test_ensure_cells_is_idempotent_and_batched(self):
        protocol = MISProtocol()
        table = LazyExtendedTable(protocol)
        state_id = table.state_id(protocol.initial_state())
        table.ensure_cells([state_id, state_id], [0, 0])
        evaluated = table.num_cells
        table.ensure_cells([state_id], [0])
        assert table.num_cells == evaluated

    def test_strict_protocols_use_their_single_query_letter(self):
        protocol = compile_to_asynchronous(BroadcastProtocol())
        table = LazyExtendedTable(protocol)
        state_id = table.state_id(protocol.initial_state())
        queried = table.queried_letter_ids(state_id)
        assert queried == table.queried_letter_ids(state_id)  # stable across calls
        assert len(queried) == 1
        assert table.letters[queried[0]] == protocol.query_letter(protocol.initial_state())

    def test_state_budget_is_enforced(self):
        protocol = compile_to_asynchronous(MISProtocol())
        table = LazyExtendedTable(protocol, max_states=1)
        table.state_id(protocol.initial_state())
        with pytest.raises(ProtocolNotVectorizableError):
            table.cell(0, 0)  # evaluating discovers successor states

    def test_cell_budget_is_enforced(self):
        protocol = MISProtocol()  # every state allocates (b+1)^k >= 2 cells
        table = LazyExtendedTable(protocol, max_cells=1)
        with pytest.raises(ProtocolNotVectorizableError):
            table.state_id(protocol.initial_state())


class TestObservationEncoding:
    def test_observation_id_matches_big_endian_counts(self):
        protocol = MISProtocol()
        table = LazyExtendedTable(protocol)
        state = protocol.initial_state()
        state_id = table.state_id(state)
        arity = len(protocol.queried_letters(state))
        b1 = protocol.bounding.value + 1
        counts = tuple(i % b1 for i in range(arity))
        expected = 0
        for count in counts:
            expected = expected * b1 + count
        assert table.observation_id(state_id, counts) == expected
        with pytest.raises(ValueError):
            table.observation_id(state_id, counts + (0,))

    def test_cell_options_match_the_object_level_protocol(self):
        protocol = MISProtocol()
        table = LazyExtendedTable(protocol)
        state = protocol.initial_state()
        state_id = table.state_id(state)
        queried = protocol.queried_letters(state)
        b1 = protocol.bounding.value + 1
        for raw in range(b1 ** len(queried)):
            digits, rest = [], raw
            for _ in queried:
                digits.append(rest % b1)
                rest //= b1
            counts = tuple(reversed(digits))
            observation = Observation(protocol.alphabet, dict(zip(queried, counts)))
            reference = protocol.validate_option_set(protocol.options(state, observation))
            offset, count = table.cell(state_id, raw)
            assert count == len(reference)
            for position, choice in enumerate(reference):
                next_id, emit_id = table.option(offset + position)
                assert table.states[next_id] == choice.state
                if is_epsilon(choice.emit):
                    assert emit_id == -1
                else:
                    assert table.letters[emit_id] == choice.emit

    def test_under_declared_queried_letters_are_rejected(self):
        class LyingProtocol(MISProtocol):
            def queried_letters(self, state):
                return ()  # options() still reads several letters

        table = LazyExtendedTable(LyingProtocol())
        state_id = table.state_id(LyingProtocol().initial_state())
        with pytest.raises(ProtocolNotVectorizableError):
            table.cell(state_id, 0)


class TestDeterminismAndSharing:
    def test_two_tables_agree_id_for_id(self):
        def build():
            protocol = compile_to_asynchronous(BroadcastProtocol())
            table = LazyExtendedTable(protocol)
            VectorizedEngine(
                path_graph(8),
                protocol,
                seed=3,
                inputs=broadcast_inputs(0),
                table=table,
            ).run(raise_on_timeout=False)
            return table

        first, second = build(), build()
        assert first.num_states == second.num_states
        assert first.num_cells == second.num_cells
        assert first.states == second.states

    def test_shared_table_starts_later_runs_warm(self):
        protocol = compile_to_asynchronous(BroadcastProtocol())
        table = LazyExtendedTable(protocol)
        first = VectorizedEngine(
            path_graph(10),
            protocol,
            seed=1,
            inputs=broadcast_inputs(0),
            table=table,
        ).run(raise_on_timeout=False)
        warm_cells = table.num_cells
        second = VectorizedEngine(
            path_graph(10),
            protocol,
            seed=1,
            inputs=broadcast_inputs(0),
            table=table,
        ).run(raise_on_timeout=False)
        assert table.num_cells == warm_cells  # no new evaluation needed
        assert first.summary_fields() == second.summary_fields()

    def test_lazy_run_matches_interpreter_bitwise(self):
        def protocol_factory():
            return lower_to_single_query(MISProtocol())

        graph = gnp_random_graph(18, 0.3, seed=5)
        reference = Simulation().run_protocol(
            graph,
            protocol_factory(),
            seed=7,
            max_rounds=200_000,
            raise_on_timeout=False,
            backend="python",
        )
        table = LazyExtendedTable(protocol_factory())
        vectorized = VectorizedEngine(
            graph,
            protocol_factory(),
            seed=7,
            table=table,
        ).run(max_rounds=200_000, raise_on_timeout=False)
        assert reference.summary_fields() == vectorized.summary_fields()
        assert table.num_states > 0
