"""Unit tests for the fluent protocol builder."""

import pytest

from repro.api import Simulation
from repro.core.builder import ProtocolBuilder
from repro.core.errors import ProtocolSpecificationError
from repro.graphs import path_graph, star_graph


def build_ping_protocol():
    """A broadcast-like protocol built through the fluent interface."""
    builder = ProtocolBuilder(
        "ping", alphabet=["QUIET", "PING"], initial_letter="QUIET", bounding=1
    )
    builder.state("seed", queries="PING", initial=True).always().go("done", emit="PING")
    waiting = builder.state("waiting", queries="PING")
    waiting.when(0).stay()
    waiting.when(1).go("done", emit="PING")
    builder.state("done", queries="PING", output=True).always().stay()
    return builder.build()


class TestBuilder:
    def test_built_protocol_has_the_declared_structure(self):
        protocol = build_ping_protocol()
        assert protocol.name == "ping"
        assert set(protocol.states) == {"seed", "waiting", "done"}
        assert protocol.query_letter("waiting") == "PING"
        assert protocol.is_output_state("done")
        assert protocol.input_states == ("seed",)

    def test_when_rules_translate_to_options(self):
        protocol = build_ping_protocol()
        (stay,) = protocol.options("waiting", 0)
        assert stay.state == "waiting" and not stay.transmits()
        (fire,) = protocol.options("waiting", 1)
        assert fire.state == "done" and fire.emit == "PING"

    def test_always_covers_every_count(self):
        protocol = build_ping_protocol()
        for count in (0, 1):
            (choice,) = protocol.options("seed", count)
            assert choice.state == "done"

    def test_choose_uniformly_creates_multiple_options(self):
        builder = ProtocolBuilder("coin", alphabet=["X"], initial_letter="X", bounding=1)
        builder.state("flip", queries="X", initial=True).always().choose_uniformly(
            "heads", "tails", emit="X"
        )
        builder.state("heads", queries="X", output=True).always().stay()
        builder.state("tails", queries="X", output=True).always().stay()
        protocol = builder.build()
        options = protocol.options("flip", 0)
        assert {choice.state for choice in options} == {"heads", "tails"}

    def test_when_at_least_uses_the_bounding_parameter(self):
        builder = ProtocolBuilder("thresh", alphabet=["X"], initial_letter="X", bounding=3)
        state = builder.state("s", queries="X", initial=True)
        state.when_at_least(2).go("s")
        state.when(0, 1).stay()
        protocol = builder.build()
        assert protocol.options("s", 2)[0].state == "s"
        assert protocol.options("s", 3)[0].state == "s"

    def test_when_at_least_beyond_bound_is_rejected(self):
        builder = ProtocolBuilder("thresh", alphabet=["X"], initial_letter="X", bounding=1)
        state = builder.state("s", queries="X", initial=True)
        with pytest.raises(ProtocolSpecificationError):
            state.when_at_least(2)

    def test_builder_requires_states_and_initial_states(self):
        empty = ProtocolBuilder("empty", alphabet=["X"], initial_letter="X", bounding=1)
        with pytest.raises(ProtocolSpecificationError):
            empty.build()
        no_initial = ProtocolBuilder("x", alphabet=["X"], initial_letter="X", bounding=1)
        no_initial.state("s", queries="X").always().stay()
        with pytest.raises(ProtocolSpecificationError):
            no_initial.build()

    def test_reopening_a_state_returns_the_same_builder(self):
        builder = ProtocolBuilder("x", alphabet=["X"], initial_letter="X", bounding=1)
        first = builder.state("s", queries="X", initial=True)
        second = builder.state("s", queries="X")
        assert first is second

    def test_empty_when_is_rejected(self):
        builder = ProtocolBuilder("x", alphabet=["X"], initial_letter="X", bounding=1)
        state = builder.state("s", queries="X", initial=True)
        with pytest.raises(ProtocolSpecificationError):
            state.when()


class TestBuiltProtocolExecution:
    def test_built_protocol_runs_on_the_synchronous_engine(self):
        protocol = build_ping_protocol()
        graph = star_graph(5)
        result = Simulation().run_protocol(graph, protocol, seed=1, backend="python")
        assert result.reached_output
        assert result.rounds == 1

    def test_built_protocol_runs_on_the_asynchronous_engine(self):
        protocol = build_ping_protocol()
        graph = path_graph(4)
        result = Simulation().run_protocol(
            graph, protocol, environment="async", seed=2, backend="python"
        )
        assert result.reached_output
