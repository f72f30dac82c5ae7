"""Integration tests for the ablation experiments (A1, A2) and biased protocols."""

import pytest

from repro.analysis.experiments import (
    experiment_adversary_severity,
    experiment_coin_bias_ablation,
)
from repro.api import Simulation
from repro.graphs import cycle_graph, gnp_random_graph
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.verification import is_maximal_independent_set


class TestBiasedCoinProtocol:
    @pytest.mark.parametrize("climb, decide", [(1, 1), (1, 3), (3, 1), (5, 2)])
    def test_any_bias_still_produces_a_correct_mis(self, climb, decide):
        graph = gnp_random_graph(40, 0.12, seed=climb * 10 + decide)
        protocol = MISProtocol(climb_weight=climb, decide_weight=decide)
        result = Simulation().run_protocol(graph, protocol, seed=3, backend="python")
        assert is_maximal_independent_set(graph, mis_from_result(result))

    def test_bias_is_reflected_in_the_protocol_name(self):
        assert MISProtocol().name == "stone-age-mis"
        assert "3:1" in MISProtocol(climb_weight=3, decide_weight=1).name

    def test_up_option_multiset_sizes_follow_the_weights(self):
        from repro.core.alphabet import Observation

        protocol = MISProtocol(climb_weight=2, decide_weight=3)
        observation = Observation(protocol.alphabet, [0] * len(protocol.alphabet))
        options = protocol.options("UP0", observation)
        assert len(options) == 5

    def test_invalid_weights_are_rejected(self):
        with pytest.raises(ValueError):
            MISProtocol(climb_weight=0)
        with pytest.raises(ValueError):
            MISProtocol(decide_weight=0)

    def test_heavy_climb_bias_stretches_the_execution(self):
        """Climbing too eagerly makes tournaments (and runs) much longer."""
        graph = cycle_graph(48)
        fair_rounds = []
        climber_rounds = []
        for seed in range(3):
            fair_rounds.append(Simulation().run_protocol(
                graph, MISProtocol(), seed=seed, backend="python"
            ).rounds)
            climber_rounds.append(
                Simulation().run_protocol(
                    graph, MISProtocol(climb_weight=7, decide_weight=1), seed=seed, backend="python"
                ).rounds
            )
        assert sum(climber_rounds) > sum(fair_rounds)


class TestAblationExperiments:
    def test_a1_coin_bias(self):
        report = experiment_coin_bias_ablation(sizes=(48,), repetitions=2)
        assert report.rows
        assert report.passed is True

    def test_a2_adversary_severity(self):
        report = experiment_adversary_severity(slow_factors=(1.0, 8.0), size=7)
        assert report.rows
        assert report.passed is True

    def test_a2_normalised_run_time_is_insensitive_to_severity(self):
        report = experiment_adversary_severity(slow_factors=(1.0, 32.0), size=7)
        units = [row[2] for row in report.rows]
        assert max(units) <= 5 * min(units)
