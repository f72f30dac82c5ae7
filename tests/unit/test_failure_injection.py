"""Failure-injection tests: malformed protocols and hostile schedules.

The engines must fail loudly (with library exceptions) rather than silently
mis-execute when handed a protocol that violates the model's contract.
"""

import pytest

from repro.api import Simulation
from repro.core.alphabet import EPSILON
from repro.core.errors import ExecutionError, ProtocolSpecificationError
from repro.core.protocol import ExtendedProtocol, Protocol, TransitionChoice
from repro.graphs import path_graph
from repro.scheduling.adversary import AdversaryPolicy, AdversarySchedule
from repro.scheduling.async_engine import AsynchronousEngine


class _EmptyOptionsProtocol(Protocol):
    """A broken protocol whose transition relation is empty."""

    def __init__(self):
        super().__init__(
            name="broken-empty-options",
            alphabet=["X"],
            initial_letter="X",
            bounding=1,
            input_states=["s"],
        )

    def query_letter(self, state):
        return "X"

    def options(self, state, count):
        return ()


class _EmptyOptionsExtended(ExtendedProtocol):
    def __init__(self):
        super().__init__(
            name="broken-empty-extended",
            alphabet=["X"],
            initial_letter="X",
            bounding=1,
            input_states=["s"],
        )

    def options(self, state, observation):
        return ()


class _NeverTerminatingProtocol(Protocol):
    """A legal protocol that simply never reaches an output configuration."""

    def __init__(self):
        super().__init__(
            name="never-terminating",
            alphabet=["X"],
            initial_letter="X",
            bounding=1,
            input_states=["s"],
        )

    def query_letter(self, state):
        return "X"

    def options(self, state, count):
        return (TransitionChoice("s", EPSILON),)


class TestBrokenProtocols:
    def test_sync_engine_rejects_empty_option_sets(self):
        with pytest.raises(ProtocolSpecificationError):
            Simulation().run_protocol(
                path_graph(3), _EmptyOptionsProtocol(), seed=1, max_rounds=5, backend="python"
            )

    def test_sync_engine_rejects_empty_extended_option_sets(self):
        with pytest.raises(ProtocolSpecificationError):
            Simulation().run_protocol(
                path_graph(3), _EmptyOptionsExtended(), seed=1, max_rounds=5, backend="python"
            )

    def test_async_engine_rejects_empty_option_sets(self):
        with pytest.raises(ProtocolSpecificationError):
            Simulation().run_protocol(
                path_graph(3), _EmptyOptionsProtocol(), environment="async", seed=1,
                max_events=50, raise_on_timeout=False, backend="python",
            )

    def test_non_terminating_protocol_hits_the_budget_gracefully(self):
        result = Simulation().run_protocol(
            path_graph(3), _NeverTerminatingProtocol(), seed=1, max_rounds=10,
            raise_on_timeout=False, backend="python",
        )
        assert not result.reached_output
        assert result.outputs == {}


class _NonPositiveAdversary(AdversaryPolicy):
    name = "non-positive"

    def start(self, graph, rng):
        class Schedule(AdversarySchedule):
            def step_length(self, node, step):
                return 0.0

            def delivery_delay(self, sender, step, receiver):
                return 1.0

        return Schedule()


class TestHostileSchedules:
    def test_zero_step_lengths_do_not_crash_but_never_advance_time(self):
        # A zero step length violates the model (L must be positive); the
        # functional policies guard against it, and a hand-rolled schedule
        # that returns zero simply freezes the adversary clock — the engine
        # still terminates by the event budget without corrupting state.
        engine = AsynchronousEngine(
            path_graph(2),
            _NeverTerminatingProtocol(),
            adversary=_NonPositiveAdversary(),
            seed=1,
        )
        result = engine.run(max_events=100, raise_on_timeout=False)
        assert not result.reached_output
        assert result.elapsed_time == 0.0

    def test_functional_schedules_validate_positivity(self):
        import random

        from repro.scheduling.adversary import UniformRandomAdversary, _FunctionalSchedule

        schedule = _FunctionalSchedule(lambda v, t: -1.0, lambda v, t, u: 1.0)
        with pytest.raises(ExecutionError):
            schedule.step_length(0, 1)
        schedule = _FunctionalSchedule(lambda v, t: 1.0, lambda v, t, u: 0.0)
        with pytest.raises(ExecutionError):
            schedule.delivery_delay(0, 1, 1)
        # And the shipped policies only ever produce valid values.
        shipped = UniformRandomAdversary().start(path_graph(3), random.Random(1))
        assert shipped.step_length(0, 1) > 0
