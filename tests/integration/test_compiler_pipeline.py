"""Integration tests of the full compilation pipeline under adversarial timing.

These tests exercise the complete route the paper describes: write a protocol
at the comfortable (multi-letter, locally synchronous) level, compile it with
the synchronizer (Theorem 3.1 — which also folds in the multi-letter lowering
of Theorem 3.4), and run it in the raw asynchronous model of Section 2 under
every adversary policy in the library's suite.
"""

import pytest

from repro.api import Simulation
from repro.compilers import compile_to_asynchronous, lower_to_single_query
from repro.graphs import cycle_graph, gnp_random_graph, path_graph, random_tree, star_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.scheduling.adversary import default_adversary_suite
from repro.verification import (
    assert_maximal_independent_set,
    assert_proper_coloring,
)

ADVERSARIES = default_adversary_suite()


class TestSynchronizedBroadcast:
    @pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.name)
    def test_broadcast_informs_everyone(self, adversary):
        graph = path_graph(7)
        compiled = compile_to_asynchronous(BroadcastProtocol())
        result = Simulation().run_protocol(
            graph,
            compiled,
            environment="async",
            inputs=broadcast_inputs(3),
            seed=1,
            adversary=adversary,
            adversary_seed=2,
            backend="python",
        )
        assert result.reached_output
        assert all(result.outputs[node] for node in graph.nodes)


class TestSynchronizedMIS:
    @pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: a.name)
    @pytest.mark.parametrize("graph_builder", [
        lambda: gnp_random_graph(10, 0.3, seed=4),
        lambda: cycle_graph(8),
        lambda: star_graph(6),
    ], ids=["gnp-10", "cycle-8", "star-7"])
    def test_compiled_mis_is_correct_under_every_adversary(self, adversary, graph_builder):
        graph = graph_builder()
        compiled = compile_to_asynchronous(MISProtocol())
        result = Simulation().run_protocol(
            graph,
            compiled,
            environment="async",
            seed=11,
            adversary=adversary,
            adversary_seed=13,
            max_events=4_000_000,
            backend="python",
        )
        assert result.reached_output
        assert_maximal_independent_set(graph, mis_from_result(result))

    def test_compiled_outputs_match_the_problem_not_the_schedule(self):
        """Different adversaries may give different MIS's, but always MIS's."""
        graph = gnp_random_graph(12, 0.25, seed=6)
        compiled = compile_to_asynchronous(MISProtocol())
        outputs = set()
        for index, adversary in enumerate(ADVERSARIES):
            result = Simulation().run_protocol(
                graph, compiled, environment="async", seed=21, adversary=adversary,
                adversary_seed=index, max_events=4_000_000, backend="python",
            )
            winners = frozenset(mis_from_result(result))
            assert_maximal_independent_set(graph, winners)
            outputs.add(winners)
        assert outputs  # at least one valid outcome observed


class TestSynchronizedColoring:
    @pytest.mark.parametrize("adversary", ADVERSARIES[:3], ids=lambda a: a.name)
    def test_compiled_coloring_on_a_small_tree(self, adversary):
        tree = random_tree(7, seed=9)
        compiled = compile_to_asynchronous(TreeColoringProtocol())
        result = Simulation().run_protocol(
            tree,
            compiled,
            environment="async",
            seed=5,
            adversary=adversary,
            adversary_seed=6,
            max_events=6_000_000,
            backend="python",
        )
        assert result.reached_output
        assert_proper_coloring(tree, coloring_from_result(result), max_colors=3)


class TestLoweringPlusSynchronizer:
    def test_single_query_lowering_then_synchronizer_also_works(self):
        """Theorem 3.4 followed by Theorem 3.1 (the paper's original order)."""
        graph = cycle_graph(6)
        lowered = lower_to_single_query(MISProtocol())
        compiled = compile_to_asynchronous(lowered)
        result = Simulation().run_protocol(
            graph, compiled, environment="async", seed=3, adversary=ADVERSARIES[1],
            adversary_seed=4, max_events=8_000_000, backend="python",
        )
        assert result.reached_output
        assert_maximal_independent_set(graph, mis_from_result(result))


class TestOverheadShape:
    def test_synchronizer_overhead_does_not_grow_with_n(self):
        compiled = compile_to_asynchronous(BroadcastProtocol())
        ratios = []
        for size in (6, 12, 24):
            graph = path_graph(size)
            base = Simulation().run_protocol(
                graph, BroadcastProtocol(), inputs=broadcast_inputs(0), seed=1, backend="python"
            )
            asynchronous = Simulation().run_protocol(
                graph, compiled, environment="async", inputs=broadcast_inputs(0), seed=1,
                adversary=ADVERSARIES[0], adversary_seed=2, backend="python",
            )
            ratios.append(asynchronous.time_units / base.rounds)
        # Constant multiplicative overhead: the ratio stays flat as n doubles.
        assert max(ratios) <= 1.5 * min(ratios)
