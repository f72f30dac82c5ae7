"""Unit tests for the Lemma 6.2 protocol (rLBA on a path network)."""

import pytest

from repro.automata.lba import LEFT_MARKER, RIGHT_MARKER
from repro.automata.languages import palindrome_lba, palindrome_reference, parity_lba
from repro.automata.lba_to_nfsm import (
    ACTIVE,
    HALTED,
    IDLE,
    LBAPathProtocol,
    decide_word_on_path,
    path_network_for_word,
)
from repro.core.alphabet import Observation
from repro.core.errors import AutomatonError


def observe(protocol, counts=None, **keyword_counts):
    """Observation helper; tuple-valued letters go through the ``counts`` dict."""
    merged = dict(counts or {})
    merged.update(keyword_counts)
    return Observation(
        protocol.alphabet,
        {letter: merged.get(letter, 0) for letter in protocol.alphabet},
    )


class TestNetworkConstruction:
    def test_path_has_two_marker_nodes(self):
        graph, inputs = path_network_for_word("01")
        assert graph.num_nodes == 4
        assert inputs[0] == (LEFT_MARKER, False)
        assert inputs[3] == (RIGHT_MARKER, False)
        assert inputs[1] == ("0", True)
        assert inputs[2] == ("1", False)

    def test_empty_word_puts_the_head_on_the_right_marker(self):
        graph, inputs = path_network_for_word("")
        assert graph.num_nodes == 2
        assert inputs[1] == (RIGHT_MARKER, True)


class TestProtocolStructure:
    def setup_method(self):
        self.protocol = LBAPathProtocol(parity_lba())

    def test_alphabet_size_is_constant_in_the_machine(self):
        machine = parity_lba()
        expected = 3 + 2 * len(machine.states) * 2
        assert len(self.protocol.alphabet) == expected

    def test_inputs_are_mandatory(self):
        with pytest.raises(AutomatonError):
            self.protocol.initial_state(None)

    def test_initial_states_reflect_head_position(self):
        with_head = self.protocol.initial_state(("0", True))
        without_head = self.protocol.initial_state(("1", False))
        assert with_head.role == ACTIVE
        assert with_head.lba_state == "even"
        assert without_head.role == IDLE
        assert without_head.side == "L"

    def test_left_marker_knows_the_head_is_to_its_right(self):
        marker = self.protocol.initial_state((LEFT_MARKER, False))
        assert marker.side == "R"

    def test_output_states_are_halted_cells(self):
        halted = self.protocol._halt(self.protocol.initial_state(("0", False)), True)
        assert self.protocol.is_output_state(halted)
        assert self.protocol.output_value(halted) is True


class TestTransitions:
    def setup_method(self):
        self.protocol = LBAPathProtocol(parity_lba())

    def test_active_node_moves_the_head_right_with_a_tagged_transfer(self):
        active = self.protocol.initial_state(("1", True))
        (choice,) = self.protocol.options(active, observe(self.protocol))
        direction, lba_state, parity = choice.emit
        assert direction == "R"
        assert lba_state == "odd"       # parity machine flips on a 1
        assert parity == 0
        assert choice.state.role == IDLE
        assert choice.state.side == "R"
        assert choice.state.sent_right_parity == 1

    def test_idle_node_accepts_a_matching_transfer(self):
        idle = self.protocol.initial_state(("0", False))
        observation = observe(self.protocol, {("R", "odd", 0): 1})
        (choice,) = self.protocol.options(idle, observation)
        assert choice.state.role == ACTIVE
        assert choice.state.lba_state == "odd"
        assert choice.state.expect_right_parity == 1

    def test_idle_node_ignores_stale_parity(self):
        idle = self.protocol.initial_state(("0", False))
        observation = observe(self.protocol, {("R", "odd", 1): 1})
        (choice,) = self.protocol.options(idle, observation)
        assert choice.state == idle

    def test_idle_node_ignores_transfers_moving_away(self):
        idle = self.protocol.initial_state(("0", False))  # head to its left
        observation = observe(self.protocol, {("L", "odd", 0): 1})
        (choice,) = self.protocol.options(idle, observation)
        assert choice.state == idle

    def test_flood_letters_halt_every_role(self):
        idle = self.protocol.initial_state(("0", False))
        (choice,) = self.protocol.options(idle, observe(self.protocol, ACCEPT=1))
        assert choice.state.role == HALTED
        assert choice.state.verdict is True
        assert choice.emit == "ACCEPT"

    def test_halted_nodes_are_silent_sinks(self):
        halted = self.protocol._halt(self.protocol.initial_state(("0", False)), False)
        (choice,) = self.protocol.options(halted, observe(self.protocol, ACCEPT=3))
        assert choice.state == halted
        assert not choice.transmits()

    def test_accepting_configuration_emits_the_accept_flood(self):
        machine = parity_lba()
        protocol = LBAPathProtocol(machine)
        # An active right-marker cell in state "even" accepts immediately.
        active = protocol.initial_state((RIGHT_MARKER, True))
        (choice,) = protocol.options(active, observe(protocol))
        assert choice.state.role == HALTED
        assert choice.state.verdict is True
        assert choice.emit == "ACCEPT"


class TestDecisionDriver:
    def test_parity_words_are_decided_correctly(self):
        machine = parity_lba()
        assert decide_word_on_path(machine, "1010", seed=1)[0] is True
        assert decide_word_on_path(machine, "100", seed=1)[0] is False

    def test_palindromes_are_decided_correctly(self):
        machine = palindrome_lba()
        assert decide_word_on_path(machine, "abba", seed=2)[0] is True
        assert decide_word_on_path(machine, "abab", seed=2)[0] is False

    def test_a_twelve_letter_word_is_decided_like_the_reference(self):
        word = list("abbaab" * 2)
        verdict, _ = decide_word_on_path(palindrome_lba(), word, seed=3)
        assert verdict == palindrome_reference(word)

    def test_every_node_reaches_an_output_state(self):
        verdict, result = decide_word_on_path(parity_lba(), "11", seed=3)
        assert verdict is True
        assert len(result.outputs) == result.graph.num_nodes
