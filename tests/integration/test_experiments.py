"""Integration tests of the experiment harness (E1–E14).

Each experiment is run with a deliberately small workload so the whole module
stays fast; the assertions check both that the harness produces a complete
report and that the paper's qualitative shape holds even at these sizes.
E1–E11 run a second time at the larger sizes their reports were first
published at (the ``suite`` parameter set).
"""

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    experiment_baseline_comparison,
    experiment_coloring_decay,
    experiment_coloring_scaling,
    experiment_dynamic_reconvergence,
    experiment_edge_decay,
    experiment_emulator_comparison,
    experiment_lba_on_path,
    experiment_linear_space,
    experiment_message_budget,
    experiment_mis_scaling,
    experiment_model_requirements,
    experiment_multiquery_overhead,
    experiment_synchronizer_overhead,
    experiment_tournaments,
)


def _small_and_suite(small, suite):
    """Run a test once with the *small* keyword arguments, once with *suite*."""
    return pytest.mark.parametrize("kwargs", [small, suite], ids=["small", "suite"])


class TestExperimentRegistry:
    def test_all_experiments_are_registered(self):
        expected = {f"E{i}" for i in range(1, 15)} | {"A1", "A2"}
        assert set(ALL_EXPERIMENTS) == expected


class TestScalingExperiments:
    @_small_and_suite(
        {"sizes": [16, 32, 64, 128], "repetitions": 2},
        {"sizes": [16, 32, 64, 128, 256, 512, 1024], "repetitions": 3},
    )
    def test_e1_mis_scaling(self, kwargs):
        report = experiment_mis_scaling(**kwargs)
        assert report.rows
        assert report.passed is True

    @_small_and_suite(
        {"sizes": [16, 32, 64, 128], "repetitions": 2},
        {"sizes": [16, 32, 64, 128, 256, 512, 1024, 2048], "repetitions": 3},
    )
    def test_e2_coloring_scaling(self, kwargs):
        report = experiment_coloring_scaling(**kwargs)
        assert report.rows
        assert report.passed is True


class TestCompilerExperiments:
    @_small_and_suite({"sizes": (6, 8)}, {"sizes": (6, 9, 12)})
    def test_e3_synchronizer_overhead(self, kwargs):
        report = experiment_synchronizer_overhead(**kwargs)
        assert report.rows
        assert report.passed is True

    @_small_and_suite({"sizes": (16, 24)}, {"sizes": (16, 32, 64)})
    def test_e4_multiquery_overhead(self, kwargs):
        report = experiment_multiquery_overhead(**kwargs)
        assert report.passed is True


class TestAutomataExperiments:
    @_small_and_suite({"sizes": (16, 48)}, {"sizes": (16, 64, 256, 1024)})
    def test_e5_linear_space(self, kwargs):
        report = experiment_linear_space(**kwargs)
        assert report.passed is True

    @_small_and_suite({"word_lengths": (0, 2, 4)}, {"word_lengths": (0, 1, 3, 5, 8, 12)})
    def test_e6_lba_on_path(self, kwargs):
        report = experiment_lba_on_path(**kwargs)
        assert report.passed is True


class TestStructuralExperiments:
    @_small_and_suite({"sizes": (24,)}, {"sizes": (32, 64, 128)})
    def test_e7_tournaments(self, kwargs):
        report = experiment_tournaments(**kwargs)
        assert report.passed is True

    @_small_and_suite(
        {"sizes": (48,), "repetitions": 2}, {"sizes": (64, 128, 256), "repetitions": 3}
    )
    def test_e8_edge_decay(self, kwargs):
        report = experiment_edge_decay(**kwargs)
        assert report.passed is True

    @_small_and_suite(
        {"sizes": (48,), "repetitions": 2}, {"sizes": (64, 256, 1024), "repetitions": 3}
    )
    def test_e9_coloring_decay(self, kwargs):
        report = experiment_coloring_decay(**kwargs)
        assert report.passed is True


class TestComparisonExperiments:
    @_small_and_suite({"sizes": (48,)}, {"sizes": (64, 256, 1024)})
    def test_e10_baseline_comparison(self, kwargs):
        report = experiment_baseline_comparison(**kwargs)
        assert report.passed is True

    @_small_and_suite({"sizes": (48, 96)}, {"sizes": (64, 256, 1024)})
    def test_e11_message_budget(self, kwargs):
        report = experiment_message_budget(**kwargs)
        assert report.passed is True

    def test_e12_model_requirements(self):
        report = experiment_model_requirements()
        assert report.passed is True
        assert len(report.rows) >= 6


class TestDynamicExperiments:
    def test_e13_dynamic_reconvergence(self):
        report = experiment_dynamic_reconvergence(sizes=[24, 48], repetitions=2)
        assert report.rows
        assert report.passed is True

    def test_e14_emulator_comparison(self):
        report = experiment_emulator_comparison(sizes=[24, 48], repetitions=2)
        assert report.rows
        assert report.passed is True


class TestReportRendering:
    @pytest.mark.parametrize("factory, kwargs", [
        (experiment_model_requirements, {}),
        (experiment_lba_on_path, {"word_lengths": (0, 2)}),
    ])
    def test_reports_render_to_text(self, factory, kwargs):
        report = factory(**kwargs)
        text = report.render()
        assert report.experiment_id in text
        assert "paper claim" in text
