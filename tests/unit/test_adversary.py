"""Unit tests for the adversarial timing policies."""

import random

import numpy as np
import pytest

from repro.core.errors import ExecutionError
from repro.graphs import complete_graph, star_graph
from repro.scheduling.adversary import (
    BurstyAdversary,
    ExponentialAdversary,
    SkewedRatesAdversary,
    SynchronousAdversary,
    TargetedLaggardAdversary,
    UniformRandomAdversary,
    default_adversary_suite,
)


@pytest.mark.parametrize("policy", default_adversary_suite(), ids=lambda p: p.name)
class TestEveryPolicy:
    def test_all_parameters_are_positive_and_finite(self, policy):
        graph = complete_graph(6)
        schedule = policy.start(graph, random.Random(1))
        for node in graph.nodes:
            for step in range(1, 20):
                length = schedule.step_length(node, step)
                assert 0 < length < float("inf")
                for neighbour in graph.neighbors(node):
                    delay = schedule.delivery_delay(node, step, neighbour)
                    assert 0 < delay < float("inf")

    def test_policy_repr_mentions_its_name(self, policy):
        assert policy.name in repr(policy)


class TestSynchronousAdversary:
    def test_everything_is_one_time_unit(self):
        schedule = SynchronousAdversary().start(complete_graph(3), random.Random(0))
        assert schedule.step_length(0, 1) == 1.0
        assert schedule.delivery_delay(0, 1, 1) == 1.0


class TestUniformRandomAdversary:
    def test_values_respect_bounds(self):
        policy = UniformRandomAdversary(low=2.0, high=3.0)
        schedule = policy.start(complete_graph(4), random.Random(7))
        samples = [schedule.step_length(0, t) for t in range(50)]
        assert all(2.0 <= value <= 3.0 for value in samples)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ExecutionError):
            UniformRandomAdversary(low=0.0, high=1.0)
        with pytest.raises(ExecutionError):
            UniformRandomAdversary(low=3.0, high=1.0)


class TestExponentialAdversary:
    def test_floor_keeps_values_positive(self):
        policy = ExponentialAdversary(mean_step=0.01, floor=0.5)
        schedule = policy.start(complete_graph(3), random.Random(3))
        assert all(schedule.step_length(0, t) >= 0.5 for t in range(30))


class TestSkewedRatesAdversary:
    def test_slow_nodes_are_actually_slower(self):
        policy = SkewedRatesAdversary(slow_fraction=0.5, slow_factor=20.0)
        graph = complete_graph(30)
        schedule = policy.start(graph, random.Random(5))
        means = []
        for node in graph.nodes:
            samples = [schedule.step_length(node, t) for t in range(30)]
            means.append(sum(samples) / len(samples))
        assert max(means) > 5 * min(means)

    def test_parameter_validation(self):
        with pytest.raises(ExecutionError):
            SkewedRatesAdversary(slow_fraction=2.0)
        with pytest.raises(ExecutionError):
            SkewedRatesAdversary(slow_factor=0.5)


class TestBurstyAdversary:
    def test_period_validation(self):
        with pytest.raises(ExecutionError):
            BurstyAdversary(period=0)

    def test_sub_unit_slow_factor_rejected(self):
        # A factor below 1 would undercut the schedule's static delay lower
        # bound, silently breaking async backend parity.
        with pytest.raises(ExecutionError):
            BurstyAdversary(slow_factor=0.5)

    def test_alternation_produces_both_regimes(self):
        policy = BurstyAdversary(period=4, slow_factor=10.0)
        schedule = policy.start(complete_graph(2), random.Random(2))
        samples = [schedule.step_length(0, t) for t in range(40)]
        assert max(samples) > 4 * min(samples)


class TestTargetedLaggardAdversary:
    def test_victims_are_the_highest_degree_nodes(self):
        policy = TargetedLaggardAdversary(num_victims=1, slow_factor=50.0)
        star = star_graph(8)
        schedule = policy.start(star, random.Random(9))
        centre_mean = sum(schedule.step_length(0, t) for t in range(20)) / 20
        leaf_mean = sum(schedule.step_length(3, t) for t in range(20)) / 20
        assert centre_mean > 10 * leaf_mean

    def test_needs_at_least_one_victim(self):
        with pytest.raises(ExecutionError):
            TargetedLaggardAdversary(num_victims=0)

    def test_sub_unit_slow_factor_rejected(self):
        with pytest.raises(ExecutionError):
            TargetedLaggardAdversary(slow_factor=0.25)


class TestSuite:
    def test_default_suite_contains_all_six_policies(self):
        names = {policy.name for policy in default_adversary_suite()}
        assert names == {
            "synchronous",
            "uniform",
            "exponential",
            "skewed-rates",
            "bursty",
            "targeted-laggard",
        }

    def test_default_suite_is_deterministic_under_a_fixed_seed(self):
        """Re-binding any suite policy with an equally seeded rng reproduces
        the schedule draw-for-draw (experiments depend on this)."""
        graph = complete_graph(5)
        nodes = np.repeat(np.arange(5), 10)
        steps = np.tile(np.arange(1, 11), 5)
        for policy_a, policy_b in zip(default_adversary_suite(), default_adversary_suite()):
            schedule_a = policy_a.start(graph, random.Random(77))
            schedule_b = policy_b.start(graph, random.Random(77))
            assert np.array_equal(
                schedule_a.step_lengths(nodes, steps),
                schedule_b.step_lengths(nodes, steps),
            )
            receivers = (nodes + 1) % 5
            assert np.array_equal(
                schedule_a.delivery_delays(nodes, steps, receivers),
                schedule_b.delivery_delays(nodes, steps, receivers),
            )


class TestExponentialBaseline:
    """Named baseline for the future time-warp optimisation (ROADMAP).

    The exponential policy is the one shipped adversary stuck at ~1×
    vectorized speedup: its delay floor is the only safe lower
    bound on in-flight deliveries, so the time-bucket margin collapses to
    the floor and a bucket rarely holds more than one node step.  Pin
    (a) bitwise scalar-vs-batch equality of the draws and (b) the
    bucket-size bound itself, so any future lookahead/time-warp change
    has a regression anchor to beat.
    """

    def test_scalar_and_batch_draws_agree_bitwise(self):
        schedule = ExponentialAdversary().start(complete_graph(16), random.Random(29))
        assert schedule.batch_capable
        nodes = np.repeat(np.arange(16), 40)
        steps = np.tile(np.arange(1, 41), 16)
        receivers = (nodes + 5) % 16
        lengths = schedule.step_lengths(nodes, steps)
        delays = schedule.delivery_delays(nodes, steps, receivers)
        assert all(
            schedule.step_length(int(v), int(t)) == float(value)
            for v, t, value in zip(nodes, steps, lengths)
        )
        assert all(
            schedule.delivery_delay(int(v), int(t), int(u)) == float(value)
            for v, t, u, value in zip(nodes, steps, receivers, delays)
        )

    def test_delay_floor_collapses_the_bucket_margin(self):
        policy = ExponentialAdversary()
        schedule = policy.start(complete_graph(64), random.Random(7))
        # The floor is the only safe margin once messages are in flight.
        assert schedule.delay_lower_bound() == policy.floor == 1e-3
        # First safe bucket of a 64-node run: horizon = min(next_time +
        # margin).  With the default floor, exactly one node makes the
        # bucket — the engine batches nothing and runs effectively
        # serially.  The synchronous policy under the same construction
        # admits the whole network per bucket.
        n = 64
        next_time = schedule.step_lengths(
            np.arange(n), np.ones(n, dtype=np.int64)
        )
        margin = np.full(n, schedule.delay_lower_bound())
        horizon = float((next_time + margin).min())
        assert int((next_time < horizon).sum()) == 1
        sync = SynchronousAdversary().start(complete_graph(64), random.Random(7))
        sync_next = sync.step_lengths(np.arange(n), np.ones(n, dtype=np.int64))
        sync_margin = np.full(n, sync.delay_lower_bound())
        sync_horizon = float((sync_next + sync_margin).min())
        assert int((sync_next < sync_horizon).sum()) == n


@pytest.mark.parametrize("policy", default_adversary_suite(), ids=lambda p: p.name)
class TestBatchSampling:
    """The batch interface of every shipped policy (satellite of PR 2)."""

    def _schedule(self, policy):
        return policy.start(complete_graph(8), random.Random(3))

    def test_scalar_and_batch_sampling_agree_bitwise(self, policy):
        import numpy as np

        schedule = self._schedule(policy)
        assert schedule.batch_capable
        nodes = np.repeat(np.arange(8), 25)
        steps = np.tile(np.arange(1, 26), 8)
        lengths = schedule.step_lengths(nodes, steps)
        assert all(
            schedule.step_length(int(v), int(t)) == float(value)
            for v, t, value in zip(nodes, steps, lengths)
        )
        receivers = (nodes + 3) % 8
        delays = schedule.delivery_delays(nodes, steps, receivers)
        assert all(
            schedule.delivery_delay(int(v), int(t), int(u)) == float(value)
            for v, t, u, value in zip(nodes, steps, receivers, delays)
        )

    def test_batch_samples_are_positive_and_finite(self, policy):
        import numpy as np

        schedule = self._schedule(policy)
        nodes = np.repeat(np.arange(8), 50)
        steps = np.tile(np.arange(1, 51), 8)
        lengths = schedule.step_lengths(nodes, steps)
        delays = schedule.delivery_delays(nodes, steps, (nodes + 1) % 8)
        for values in (lengths, delays):
            assert np.isfinite(values).all()
            assert (values > 0).all()

    def test_delay_lower_bound_actually_bounds(self, policy):
        import numpy as np

        schedule = self._schedule(policy)
        bound = schedule.delay_lower_bound()
        assert bound is not None and bound > 0
        nodes = np.repeat(np.arange(8), 40)
        steps = np.tile(np.arange(1, 41), 8)
        delays = schedule.delivery_delays(nodes, steps, (nodes + 1) % 8)
        assert (delays >= bound).all()


class TestBatchValidation:
    def test_default_batch_fallback_loops_over_scalars(self):
        from repro.scheduling.adversary import AdversarySchedule

        class Doubling(AdversarySchedule):
            def step_length(self, node, step):
                return float(node + 2 * step)

            def delivery_delay(self, sender, step, receiver):
                return float(sender + step + receiver + 1)

        schedule = Doubling()
        assert not schedule.batch_capable
        lengths = schedule.step_lengths(np.array([0, 1]), np.array([3, 4]))
        assert lengths.tolist() == [6.0, 9.0]
        delays = schedule.delivery_delays(np.array([0]), np.array([2]), np.array([5]))
        assert delays.tolist() == [8.0]

    def test_batch_fallback_validates_positivity(self):
        from repro.scheduling.adversary import AdversarySchedule

        class Broken(AdversarySchedule):
            def step_length(self, node, step):
                return 1.0

            def delivery_delay(self, sender, step, receiver):
                return 1.0

            def step_lengths(self, nodes, steps):
                from repro.scheduling.adversary import _validated_positive

                return _validated_positive(np.zeros(len(nodes)), "step length")

        with pytest.raises(ExecutionError):
            Broken().step_lengths(np.array([0, 1]), np.array([1, 1]))


class TestDerivedAdversarySeed:
    def test_derivation_is_a_pure_integer_mix(self):
        from repro.scheduling.adversary import derive_adversary_seed

        assert derive_adversary_seed(42) == derive_adversary_seed(42)
        assert derive_adversary_seed(42) != derive_adversary_seed(43)
        assert derive_adversary_seed(None) != derive_adversary_seed(0)

    def test_derivation_survives_hash_randomization(self):
        """The old ``(seed, "adversary").__hash__()`` fallback changed with
        ``PYTHONHASHSEED``; the integer mix must not."""
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        script = (
            "from repro.scheduling.adversary import derive_adversary_seed;"
            "print(derive_adversary_seed(123), derive_adversary_seed(None))"
        )
        outputs = set()
        for hash_seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(repo_root / "src"),
                },
                cwd=repo_root,
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
