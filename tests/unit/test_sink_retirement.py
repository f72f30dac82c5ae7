"""Sink retirement in the synchronous vectorized round.

A state is a *sink* when every observation cell of its row holds exactly one
option, which keeps the state and emits nothing (MIS's ``WIN``/``LOSE``,
colouring's ``COLORED`` states, broadcast's ``INFORMED``).  ``step_rows``
steps a row whose state was a sink when a round began that one round more —
the step copies its last letter into the other half of the ping-pong buffer
— and then stops stepping it.  These tests pin which states count as sinks
and check, round by round against the interpreter, that retiring them
changes nothing a run reports.
"""

import numpy as np
import pytest

from repro.api import RunSpec, Simulation
from repro.core.alphabet import EPSILON
from repro.core.protocol import TableProtocol
from repro.graphs import gnp_random_graph
from repro.protocols.broadcast import INFORMED, BroadcastProtocol
from repro.protocols.coloring import COLORED, TreeColoringProtocol
from repro.protocols.mis import LOSE, MIS_STATES, WIN, MISProtocol
from repro.scheduling import vectorized_engine
from repro.scheduling.compiled import LazyExtendedTable, compile_protocol
from repro.scheduling.sharded_engine import ShardedVectorizedEngine
from repro.scheduling.sync_engine import SynchronousEngine
from repro.scheduling.vectorized_engine import TABLE_FIELDS, VectorizedEngine

GO, WAIT, FORK, DONE, HALT, STUCK = "GO", "WAIT", "FORK", "DONE", "HALT", "STUCK"


def _hand_built() -> TableProtocol:
    """Every kind of state the sink rule has to tell apart.

    ``HALT`` is an output sink and ``STUCK`` a sink that is no output (both
    have no table entries: they stay silently under every count).  ``WAIT``
    stays silently under one count only, ``FORK`` stays silently everywhere
    except one cell with two options, and ``DONE`` is an output state that
    emits under one count.
    """
    return TableProtocol(
        "sink-cases",
        states=(GO, WAIT, FORK, DONE, HALT, STUCK),
        alphabet=("a", "b"),
        initial_letter="a",
        bounding=1,
        query={GO: "a", WAIT: "b", FORK: "a", DONE: "b", HALT: "a", STUCK: "b"},
        delta={
            (GO, 0): [(FORK, "a"), (WAIT, "b"), (HALT, "b")],
            (GO, 1): [(GO, "b"), (DONE, "a"), (STUCK, EPSILON)],
            (WAIT, 0): [(WAIT, EPSILON)],
            (WAIT, 1): [(GO, "a")],
            (FORK, 0): [(FORK, EPSILON)],
            (FORK, 1): [(FORK, EPSILON), (STUCK, "b")],
            (DONE, 1): [(DONE, "a")],
        },
        input_states=(GO,),
        output_states=(DONE, HALT),
    )


def _sinks(protocol) -> set:
    compiled = compile_protocol(protocol)
    return {compiled.states[i] for i in np.flatnonzero(compiled.sink_mask)}


@pytest.fixture
def stepped_rows(monkeypatch):
    """The number of rows each ``step_rows`` call stepped, in call order.

    Read after the call: a call retires the rows settled in the round before
    it and then steps what is left.
    """
    counts = []
    step_rows = vectorized_engine.step_rows

    def counting(rows, *args, **kwargs):
        transmitting = step_rows(rows, *args, **kwargs)
        counts.append(len(rows))
        return transmitting

    monkeypatch.setattr(vectorized_engine, "step_rows", counting)
    return counts


def _lockstep(engine, graph, protocol, seed, rounds, initial_states=None):
    """Step *engine* and the interpreter together, comparing every round."""
    interpreter = SynchronousEngine(graph, protocol, seed=seed, initial_states=initial_states)
    for _ in range(rounds):
        interpreter.step_round()
        engine.step_round()
        assert engine.states == interpreter.states
        assert engine.last_letters == interpreter.last_letters
    reference = interpreter.run(max_rounds=rounds)
    result = engine.run(max_rounds=rounds)
    assert result.summary_fields() == reference.summary_fields()
    return result


class TestSinkMask:
    def test_mis_sinks_are_win_and_lose(self):
        assert _sinks(MISProtocol()) == {WIN, LOSE}

    def test_coloring_sinks_are_its_three_colored_states(self):
        compiled = compile_protocol(TreeColoringProtocol())
        colored = {state for state in compiled.states if state.mode == COLORED}
        assert len(compiled.states) == 278
        assert len(colored) == 3
        assert _sinks(TreeColoringProtocol()) == colored

    def test_broadcast_sink_is_informed(self):
        assert _sinks(BroadcastProtocol()) == {INFORMED}

    def test_hand_built_sinks_are_exactly_the_silent_fixed_points(self):
        assert _sinks(_hand_built()) == {HALT, STUCK}

    def test_lazy_tables_report_no_sinks(self):
        table = LazyExtendedTable(MISProtocol())
        for state in MIS_STATES:
            table.state_id(state)
        sink_mask = table.arrays()[TABLE_FIELDS.index("sink_mask")]
        assert sink_mask.shape == (len(MIS_STATES),) and not sink_mask.any()


class TestRetirementParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_non_output_sink_runs_to_max_rounds_like_the_interpreter(self, seed, stepped_rows):
        graph = gnp_random_graph(40, 0.08, seed=seed)
        protocol = _hand_built()
        engine = VectorizedEngine(graph, protocol, seed=seed)
        result = _lockstep(engine, graph, protocol, seed, rounds=30)
        assert not result.reached_output and result.rounds == 30
        assert STUCK in result.final_states
        assert result.total_node_steps == graph.num_nodes * 30
        assert sum(stepped_rows) < graph.num_nodes * 30

    @pytest.mark.parametrize("seed", range(4))
    def test_states_that_are_no_sinks_stay_live(self, seed, stepped_rows):
        graph = gnp_random_graph(36, 0.1, seed=seed)
        protocol = _hand_built()
        mixed = [(DONE, WAIT, FORK)[v % 3] for v in graph.nodes]
        engine = VectorizedEngine(graph, protocol, seed=seed, initial_states=mixed)
        _lockstep(engine, graph, protocol, seed, rounds=2, initial_states=mixed)
        # Nobody began either round in a sink, so nobody retired.
        assert stepped_rows == [graph.num_nodes, graph.num_nodes]

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_that_start_in_a_sink_retire_after_one_step(self, seed, stepped_rows):
        graph = gnp_random_graph(36, 0.1, seed=seed)
        protocol = _hand_built()
        start = [(HALT, STUCK, GO)[v % 3] for v in graph.nodes]
        engine = VectorizedEngine(graph, protocol, seed=seed, initial_states=start)
        _lockstep(engine, graph, protocol, seed, rounds=12, initial_states=start)
        assert stepped_rows[0] == graph.num_nodes
        assert stepped_rows[1] == start.count(GO)

    def test_rounds_go_on_once_every_row_retired(self, stepped_rows):
        graph = gnp_random_graph(20, 0.2, seed=1)
        protocol = _hand_built()
        start = [STUCK] * graph.num_nodes
        engine = VectorizedEngine(graph, protocol, seed=1, initial_states=start)
        result = _lockstep(engine, graph, protocol, 1, rounds=3, initial_states=start)
        assert not result.reached_output and result.total_messages == 0
        assert stepped_rows == [graph.num_nodes, 0, 0]

    def test_sharded_run_with_sinks_matches_the_interpreter(self):
        graph = gnp_random_graph(60, 0.06, seed=3)
        protocol = _hand_built()
        start = [(HALT, GO, GO)[v % 3] for v in graph.nodes]
        with ShardedVectorizedEngine(
            graph, protocol, seed=3, shards=2, initial_states=start
        ) as engine:
            result = _lockstep(engine, graph, protocol, 3, rounds=20, initial_states=start)
        assert STUCK in result.final_states

    def test_mis_steps_fewer_than_half_its_node_rounds(self, stepped_rows):
        """The mechanism: most of MIS's node-rounds are spent in a sink."""
        n = 4096
        spec = RunSpec(protocol="mis", graph="random_tree", nodes=n, seed=5, backend="vectorized")
        result = Simulation().simulate(spec)
        assert result.reached_output
        assert len(stepped_rows) == result.rounds
        assert result.total_node_steps == n * result.rounds
        assert sum(stepped_rows) < n * result.rounds / 2
        reference = Simulation().run_protocol(
            spec.build_graph(), MISProtocol(), seed=5, backend="python"
        )
        assert result.summary_fields() == reference.summary_fields()
