"""Cross-model comparison tests (the related-work axis of the paper)."""

import math

import pytest

from repro.api import Simulation
from repro.baselines.beeping import sop_selection_mis
from repro.baselines.centralized import greedy_mis, two_color_tree
from repro.baselines.cole_vishkin import cole_vishkin_3_coloring
from repro.baselines.luby import luby_mis
from repro.graphs import gnp_random_graph, random_tree
from repro.protocols.coloring import TreeColoringProtocol, coloring_from_result
from repro.protocols.matching import maximal_matching_via_line_graph
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.verification import (
    colors_used,
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
)


class TestMISAcrossModels:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_three_models_produce_valid_results(self, seed):
        graph = gnp_random_graph(80, 0.06, seed=seed)
        stone = mis_from_result(Simulation().run_protocol(
            graph, MISProtocol(), seed=seed, backend="python"
        ))
        luby_set, _ = luby_mis(graph, seed=seed)
        beep_set, _ = sop_selection_mis(graph, seed=seed)
        for candidate in (stone, luby_set, beep_set):
            assert is_maximal_independent_set(graph, candidate)

    def test_luby_needs_fewer_rounds_but_bigger_messages(self):
        graph = gnp_random_graph(200, 0.03, seed=7)
        stone = Simulation().run_protocol(graph, MISProtocol(), seed=7, backend="python")
        _, luby_result = luby_mis(graph, seed=7)
        assert luby_result.rounds <= stone.rounds
        nfsm_letter_bits = math.ceil(math.log2(len(MISProtocol().alphabet)))
        luby_bits = luby_result.total_message_bits / max(luby_result.total_messages, 1)
        assert luby_bits > nfsm_letter_bits

    def test_stone_age_mis_size_is_comparable_to_greedy(self):
        graph = gnp_random_graph(120, 0.05, seed=9)
        stone = mis_from_result(Simulation().run_protocol(
            graph, MISProtocol(), seed=9, backend="python"
        ))
        greedy = greedy_mis(graph)
        assert len(stone) >= 0.5 * len(greedy)


class TestColoringAcrossModels:
    @pytest.mark.parametrize("seed", range(3))
    def test_stone_age_and_cole_vishkin_both_3_color(self, seed):
        tree = random_tree(150, seed=seed)
        stone = coloring_from_result(
            Simulation().run_protocol(
                tree, TreeColoringProtocol(), seed=seed, max_rounds=20_000, backend="python"
            )
        )
        baseline = cole_vishkin_3_coloring(tree)
        assert is_proper_coloring(tree, stone) and colors_used(stone) <= 3
        assert is_proper_coloring(tree, baseline.colors) and colors_used(baseline.colors) <= 3

    def test_cole_vishkin_is_much_faster_but_needs_identifiers(self):
        tree = random_tree(500, seed=4)
        stone = Simulation().run_protocol(
            tree, TreeColoringProtocol(), seed=4, max_rounds=20_000, backend="python"
        )
        baseline = cole_vishkin_3_coloring(tree)
        assert baseline.rounds < stone.rounds

    def test_two_coloring_exists_but_is_out_of_reach_distributedly(self):
        tree = random_tree(100, seed=5)
        sequential = two_color_tree(tree)
        assert colors_used(sequential) <= 2
        stone = coloring_from_result(
            Simulation().run_protocol(
                tree, TreeColoringProtocol(), seed=5, max_rounds=20_000, backend="python"
            )
        )
        assert colors_used(stone) <= 3


class TestMatchingReduction:
    @pytest.mark.parametrize("seed", range(3))
    def test_line_graph_matching_matches_greedy_quality(self, seed):
        graph = gnp_random_graph(40, 0.12, seed=seed)
        matching, _ = maximal_matching_via_line_graph(graph, seed=seed)
        assert is_maximal_matching(graph, matching)
        # Any maximal matching is a 2-approximation of the maximum one, so two
        # maximal matchings are within a factor 2 of each other.
        from repro.baselines.centralized import greedy_maximal_matching

        greedy = greedy_maximal_matching(graph)
        assert len(matching) >= math.ceil(len(greedy) / 2)
