"""Integration tests for the Section 6 equivalence results."""

import random

import pytest

from repro.api import Simulation
from repro.automata.languages import SAMPLE_LANGUAGES
from repro.automata.lba_to_nfsm import LBAPathProtocol, decide_word_on_path, path_network_for_word
from repro.automata.nfsm_to_lba import simulate_with_linear_space
from repro.compilers import compile_to_asynchronous
from repro.graphs import gnp_random_graph
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.scheduling.adversary import SkewedRatesAdversary
from repro.verification import is_maximal_independent_set


class TestLemma62PathSimulation:
    @pytest.mark.parametrize("language", sorted(SAMPLE_LANGUAGES))
    def test_path_network_decides_like_the_sequential_machine(self, language):
        factory, reference, alphabet = SAMPLE_LANGUAGES[language]
        machine = factory()
        rng = random.Random(hash(language) % (2**32))
        for trial in range(12):
            word = [rng.choice(alphabet) for _ in range(rng.randint(0, 9))]
            verdict, _ = decide_word_on_path(machine, word, seed=trial)
            assert verdict == reference(word), (language, word)

    def test_rounds_scale_with_the_sequential_step_count(self):
        factory, _, _ = SAMPLE_LANGUAGES["palindromes"]
        machine = factory()
        word = list("abba" * 3)
        sequential = machine.run(word)
        _, network = decide_word_on_path(machine, word, seed=1)
        # Every LBA step maps to O(1) rounds (one head hand-off), plus the
        # final verdict flood of O(n) rounds.
        assert network.rounds <= 3 * sequential.steps + 5 * (len(word) + 2)

    def test_compiled_path_protocol_is_correct_asynchronously(self):
        factory, reference, _ = SAMPLE_LANGUAGES["parity"]
        machine = factory()
        word = ["1", "1", "0"]
        protocol = LBAPathProtocol(machine)
        graph, inputs = path_network_for_word(word)
        compiled = compile_to_asynchronous(protocol)
        result = Simulation().run_protocol(
            graph, compiled, environment="async", inputs=inputs, seed=2,
            adversary=SkewedRatesAdversary(), adversary_seed=3,
            max_events=6_000_000, backend="python",
        )
        assert result.reached_output
        verdicts = set(result.outputs.values())
        assert verdicts == {reference(word)}


class TestLemma61LinearSpaceSimulation:
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_space_simulation_reproduces_the_engine(self, seed):
        graph = gnp_random_graph(40, 0.1, seed=seed)
        engine_result = Simulation().run_protocol(graph, MISProtocol(), seed=seed, backend="python")
        tape_result = simulate_with_linear_space(graph, MISProtocol(), seed=seed)
        assert tape_result.final_states == engine_result.final_states
        assert is_maximal_independent_set(graph, mis_from_result(tape_result))

    def test_space_stays_linear_as_the_graph_grows(self):
        per_entry = []
        for size in (32, 128, 512):
            graph = gnp_random_graph(size, 4.0 / size, seed=size)
            result = simulate_with_linear_space(graph, MISProtocol(), seed=1)
            per_entry.append(result.metadata["space_report"].extra_cells_per_entry)
        assert max(per_entry) <= 2.0
        # The per-entry overhead is flat, not growing with n.
        assert max(per_entry) - min(per_entry) < 0.5
