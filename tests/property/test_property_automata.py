"""Property-based tests for the Section 6 automata machinery."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Simulation
from repro.automata.languages import (
    balanced_parentheses_lba,
    balanced_parentheses_reference,
    palindrome_lba,
    palindrome_reference,
    parity_lba,
    parity_reference,
)
from repro.automata.lba_to_nfsm import decide_word_on_path
from repro.automata.nfsm_to_lba import simulate_with_linear_space
from repro.graphs.graph import Graph
from repro.protocols.mis import MISProtocol

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestSequentialMachines:
    @given(word=st.lists(st.sampled_from("01"), max_size=20), seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_parity_machine_matches_reference(self, word, seed):
        assert parity_lba().decides(word, seed=seed) == parity_reference(word)

    @given(word=st.lists(st.sampled_from("ab"), max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_palindrome_machine_matches_reference(self, word):
        assert palindrome_lba().decides(word) == palindrome_reference(word)

    @given(word=st.lists(st.sampled_from("()"), max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_balanced_parentheses_machine_matches_reference(self, word):
        assert balanced_parentheses_lba().decides(word) == balanced_parentheses_reference(word)


class TestPathSimulation:
    @given(word=st.lists(st.sampled_from("01"), max_size=8), seed=st.integers(0, 1000))
    @SLOW
    def test_parity_on_a_path_matches_reference(self, word, seed):
        verdict, _ = decide_word_on_path(parity_lba(), word, seed=seed)
        assert verdict == parity_reference(word)

    @given(word=st.lists(st.sampled_from("ab"), max_size=6), seed=st.integers(0, 1000))
    @SLOW
    def test_palindromes_on_a_path_match_reference(self, word, seed):
        verdict, _ = decide_word_on_path(palindrome_lba(), word, seed=seed)
        assert verdict == palindrome_reference(word)


@st.composite
def random_graphs(draw, max_nodes=10):
    n = draw(st.integers(1, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    return Graph(n, edges)


class TestLinearSpaceSimulation:
    @given(graph=random_graphs(), seed=st.integers(0, 10_000))
    @SLOW
    def test_tape_simulation_is_bit_identical_to_the_engine(self, graph, seed):
        """Lemma 6.1: the linear-space simulation reproduces the execution."""
        engine_result = Simulation().run_protocol(
            graph, MISProtocol(), seed=seed, max_rounds=50_000, backend="python"
        )
        tape_result = simulate_with_linear_space(graph, MISProtocol(), seed=seed, max_rounds=50_000)
        assert tape_result.final_states == engine_result.final_states
        assert tape_result.rounds == engine_result.rounds

    @given(graph=random_graphs(), seed=st.integers(0, 10_000))
    @SLOW
    def test_space_accounting_is_constant_per_entry(self, graph, seed):
        result = simulate_with_linear_space(graph, MISProtocol(), seed=seed, max_rounds=50_000)
        assert result.metadata["space_report"].extra_cells_per_entry <= 2.0
