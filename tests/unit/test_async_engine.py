"""Unit tests for the adversarial asynchronous engine."""

import pytest

from repro.api import Simulation
from repro.core.errors import ExecutionError, OutputNotReachedError
from repro.graphs import complete_graph, path_graph, star_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol
from repro.scheduling.adversary import (
    SynchronousAdversary,
    UniformRandomAdversary,
    default_adversary_suite,
)
from repro.scheduling.async_engine import AsynchronousEngine


class TestBasicExecution:
    def test_broadcast_reaches_everyone_under_every_adversary(self):
        graph = star_graph(5)
        for adversary in default_adversary_suite():
            result = Simulation().run_protocol(
                graph,
                BroadcastProtocol(),
                environment="async",
                inputs=broadcast_inputs(0),
                seed=2,
                adversary=adversary,
                adversary_seed=7,
                backend="python",
            )
            assert result.reached_output
            assert all(result.outputs[node] for node in graph.nodes)

    def test_extended_protocols_are_rejected(self):
        with pytest.raises(ExecutionError):
            AsynchronousEngine(path_graph(3), MISProtocol())

    def test_time_units_are_normalised_by_the_largest_parameter(self):
        graph = path_graph(6)
        result = Simulation().run_protocol(
            graph,
            BroadcastProtocol(),
            environment="async",
            inputs=broadcast_inputs(0),
            seed=1,
            adversary=SynchronousAdversary(),
            backend="python",
        )
        # With every parameter equal to 1, the normalised run-time equals the
        # elapsed time.
        assert result.time_units == pytest.approx(result.elapsed_time)
        assert result.metadata["max_parameter"] == pytest.approx(1.0)

    def test_run_time_scales_with_distance_from_the_source(self):
        near = Simulation().run_protocol(
            path_graph(12), BroadcastProtocol(), environment="async", inputs=broadcast_inputs(5),
            seed=1, adversary=SynchronousAdversary(), backend="python",
        )
        far = Simulation().run_protocol(
            path_graph(12), BroadcastProtocol(), environment="async", inputs=broadcast_inputs(0),
            seed=1, adversary=SynchronousAdversary(), backend="python",
        )
        assert far.time_units > near.time_units

    def test_event_budget_returns_partial_result(self):
        result = Simulation().run_protocol(
            path_graph(6),
            BroadcastProtocol(),
            environment="async",
            inputs=broadcast_inputs(0),
            seed=1,
            max_events=3,
            raise_on_timeout=False,
            backend="python",
        )
        assert not result.reached_output

    def test_event_budget_can_raise(self):
        with pytest.raises(OutputNotReachedError):
            Simulation().run_protocol(
                path_graph(6),
                BroadcastProtocol(),
                environment="async",
                inputs=broadcast_inputs(0),
                seed=1,
                max_events=3,
                backend="python",
            )

    def test_adversary_name_recorded_in_metadata(self):
        result = Simulation().run_protocol(
            path_graph(3),
            BroadcastProtocol(),
            environment="async",
            inputs=broadcast_inputs(0),
            seed=1,
            adversary=UniformRandomAdversary(),
            backend="python",
        )
        assert result.metadata["adversary"] == "uniform"


class TestDeterminismAndObservation:
    def test_same_seeds_reproduce_the_execution(self):
        graph = complete_graph(5)
        runs = [
            Simulation().run_protocol(
                graph,
                BroadcastProtocol(),
                environment="async",
                inputs=broadcast_inputs(0),
                seed=9,
                adversary=UniformRandomAdversary(),
                adversary_seed=17,
                backend="python",
            )
            for _ in range(2)
        ]
        assert runs[0].time_units == runs[1].time_units
        assert runs[0].total_node_steps == runs[1].total_node_steps

    def test_observer_records_transitions_in_time_order(self):
        records = []
        result = Simulation().run_protocol(
            path_graph(4),
            BroadcastProtocol(),
            environment="async",
            inputs=broadcast_inputs(0),
            seed=3,
            adversary=UniformRandomAdversary(),
            observer=records.append,
            backend="python",
        )
        assert result.reached_output
        assert records, "observer should have seen transitions"
        times = [record.time for record in records]
        assert times == sorted(times)
        # Node-local step counters increase by one per transition.
        per_node_steps = {}
        for record in records:
            expected = per_node_steps.get(record.node, 0) + 1
            assert record.step == expected
            per_node_steps[record.node] = expected

    def test_fifo_clamp_prevents_message_overtaking(self):
        """Later transmissions never arrive before earlier ones (Section 2 FIFO)."""
        from repro.scheduling.adversary import AdversaryPolicy, AdversarySchedule

        class WildDelays(AdversaryPolicy):
            """Delays that shrink rapidly with the step index, trying to make
            later messages overtake earlier ones."""

            name = "wild-delays"

            def start(self, graph, rng):
                class Schedule(AdversarySchedule):
                    def step_length(self, node, step):
                        return 1.0

                    def delivery_delay(self, sender, step, receiver):
                        return 10.0 / step

                return Schedule()

        graph = path_graph(2)
        engine = AsynchronousEngine(
            graph,
            BroadcastProtocol(),
            adversary=WildDelays(),
            seed=1,
            adversary_seed=2,
            inputs=broadcast_inputs(0),
        )
        # Drive the delivery scheduler directly: three transmissions from
        # node 0 at increasing times whose raw delays would invert the order.
        engine._schedule_deliveries(sender=0, step=1, letter="TOKEN", now=0.0)
        first_arrival = engine._last_arrival[(0, 1)]
        engine._schedule_deliveries(sender=0, step=5, letter="TOKEN", now=1.0)
        second_arrival = engine._last_arrival[(0, 1)]
        engine._schedule_deliveries(sender=0, step=50, letter="TOKEN", now=2.0)
        third_arrival = engine._last_arrival[(0, 1)]
        assert first_arrival <= second_arrival <= third_arrival
        # Without the clamp the raw arrivals would have been 10.0, 3.0, 2.2.
        assert second_arrival >= first_arrival
