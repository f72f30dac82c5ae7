"""Random table protocols against the synchronous engines.

The vectorized engine's speed leans on properties of the compiled table:
sink states are retired, single-option cells draw no pick.  The shipped
protocols give a handful of table shapes; here hypothesis draws strict
``TableProtocol``s with sinks, silent self-loops outside sinks and output
states on purpose, checks the eager table cell by cell against
``protocol.options``, and runs the interpreter and the vectorized engines
on them in lockstep, comparing every round.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_property_protocols import random_graphs

from repro.core.alphabet import EPSILON, is_epsilon
from repro.core.protocol import TableProtocol
from repro.scheduling.compiled import LazyExtendedTable, compile_protocol
from repro.scheduling.sharded_engine import ShardedVectorizedEngine
from repro.scheduling.sync_engine import SynchronousEngine
from repro.scheduling.vectorized_engine import VectorizedEngine

LETTERS = ("a", "b", "c", "d")
ROUNDS = 12


def _examples(count: int):
    return settings(
        max_examples=count,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


@st.composite
def table_protocols(draw):
    """A strict ``TableProtocol`` with 2–8 states, 2–4 letters, bounding 1–3.

    Each state takes one of three roles.  A *sink* stays silently under
    every count, through a missing entry or an explicit ``(state, ε)`` cell.
    A *lingering* state lists the silent self-loop first in every cell, and
    one of its cells offers more options, so it is no sink.  A *free* state
    draws each cell: missing, a silent self-loop, or 1–3 random options.
    """
    states = tuple(f"q{i}" for i in range(draw(st.integers(2, 8))))
    alphabet = LETTERS[: draw(st.integers(2, 4))]
    bounding = draw(st.integers(1, 3))
    counts = range(bounding + 1)
    option = st.tuples(st.sampled_from(states), st.sampled_from(alphabet + (EPSILON,)))
    delta = {}
    for state in states:
        stay = [(state, EPSILON)]
        role = draw(st.sampled_from(("sink", "lingering", "free")))
        if role == "sink":
            for count in counts:
                if draw(st.booleans()):
                    delta[state, count] = stay
        elif role == "lingering":
            branching = draw(st.sampled_from(counts))
            for count in counts:
                more = draw(st.lists(option, min_size=int(count == branching), max_size=2))
                delta[state, count] = stay + more
        else:
            for count in counts:
                kind = draw(st.sampled_from(("missing", "stay", "options")))
                if kind == "stay":
                    delta[state, count] = stay
                elif kind == "options":
                    delta[state, count] = draw(st.lists(option, min_size=1, max_size=3))
    return TableProtocol(
        "random-table",
        states=states,
        alphabet=alphabet,
        initial_letter=draw(st.sampled_from(alphabet)),
        bounding=bounding,
        query={state: draw(st.sampled_from(alphabet)) for state in states},
        delta=delta,
        input_states=draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True)),
        output_states=draw(st.lists(st.sampled_from(states), unique=True)),
    )


@st.composite
def table_runs(draw):
    """A protocol, a graph, a seed and each node's initial state and letter.

    Initial states come from the protocol's input states, so the closure
    may have two roots; half the runs also carry initial letters, as a warm
    start does.
    """
    protocol = draw(table_protocols())
    graph = draw(random_graphs())
    per_node = dict(min_size=graph.num_nodes, max_size=graph.num_nodes)
    start = dict(
        initial_states=draw(st.lists(st.sampled_from(protocol.input_states), **per_node)),
        initial_letters=draw(
            st.none() | st.lists(st.sampled_from(protocol.alphabet.letters), **per_node)
        ),
    )
    return graph, protocol, draw(st.integers(0, 10_000)), start


def _options(choices) -> list:
    return [(choice.state, None if is_epsilon(choice.emit) else choice.emit) for choice in choices]


@given(protocol=table_protocols())
@_examples(200)
def test_eager_table_is_the_protocol_cell_by_cell(protocol):
    compiled = compile_protocol(protocol)
    # The ids walk the closure breadth first from the roots: cells in count
    # order, options in order.  The list grows while it is walked.
    states = list(protocol.input_states)
    for state in states:
        for count in range(protocol.bounding.value + 1):
            for choice in protocol.options(state, count):
                if choice.state not in states:
                    states.append(choice.state)
    assert compiled.states == tuple(states)
    assert compiled.letters == protocol.alphabet.letters
    for state_id, state in enumerate(states):
        query = compiled.letter_id(protocol.query_letter(state))
        assert np.flatnonzero(compiled.strides[state_id]).tolist() == [query]
        assert compiled.strides[state_id, query] == 1
        cells = []
        for count in range(protocol.bounding.value + 1):
            cell = compiled.state_base[state_id] + count
            start = compiled.cell_offset[cell]
            table_options = []
            for k in range(start, start + compiled.cell_count[cell]):
                emit = compiled.option_emit[k]
                letter = None if emit < 0 else compiled.letters[emit]
                table_options.append((states[compiled.option_next[k]], letter))
            assert table_options == _options(protocol.options(state, count))
            cells.append(table_options)
        assert compiled.output_mask[state_id] == protocol.is_output_state(state)
        assert compiled.sink_mask[state_id] == all(cell == [(state, None)] for cell in cells)


def _lockstep(run, engines) -> None:
    """Step *engines* beside the interpreter, comparing every round."""
    graph, protocol, seed, start = run
    interpreter = SynchronousEngine(graph, protocol, seed=seed, **start)
    for _ in range(ROUNDS):
        interpreter.step_round()
        for engine in engines:
            engine.step_round()
            assert engine.states == interpreter.states
            assert engine.last_letters == interpreter.last_letters
    reference = interpreter.run(max_rounds=ROUNDS).summary_fields()
    for engine in engines:
        assert engine.run(max_rounds=ROUNDS).summary_fields() == reference


def _vectorized_engines(run) -> list:
    """``VectorizedEngine`` on the eager table and on a lazy one."""
    graph, protocol, seed, start = run
    return [
        VectorizedEngine(graph, protocol, seed=seed, **start),
        VectorizedEngine(graph, protocol, seed=seed, table=LazyExtendedTable(protocol), **start),
    ]


@given(run=table_runs())
@_examples(100)
def test_vectorized_engines_step_like_the_interpreter(run):
    _lockstep(run, _vectorized_engines(run))


@given(run=table_runs())
@_examples(5)
def test_sharded_engine_steps_like_the_interpreter(run):
    graph, protocol, seed, start = run
    with ShardedVectorizedEngine(graph, protocol, seed=seed, shards=2, **start) as sharded:
        _lockstep(run, _vectorized_engines(run) + [sharded])
