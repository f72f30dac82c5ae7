"""Unit tests for the multi-letter-query lowering (Theorem 3.4)."""

import pytest

from repro.analysis.experiments import _StretchedProtocol
from repro.compilers.multiquery import SingleQueryProtocol, lower_to_single_query
from repro.core.errors import CompilationError
from repro.graphs import gnp_random_graph
from repro.protocols.broadcast import BroadcastProtocol
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.scheduling.sync_engine import run_synchronous
from repro.verification import is_maximal_independent_set


class TestLowering:
    def setup_method(self):
        self.base = MISProtocol()
        self.lowered = SingleQueryProtocol(self.base)

    def test_only_extended_protocols_are_accepted(self):
        with pytest.raises(CompilationError):
            SingleQueryProtocol(BroadcastProtocol())

    def test_lower_to_single_query_is_identity_on_strict_protocols(self):
        strict = BroadcastProtocol()
        assert lower_to_single_query(strict) is strict

    def test_alphabet_and_bounding_are_preserved(self):
        assert self.lowered.alphabet == self.base.alphabet
        assert self.lowered.bounding == self.base.bounding
        assert self.lowered.initial_letter == self.base.initial_letter

    def test_subround_count_equals_the_alphabet_size(self):
        assert self.lowered.subrounds_per_round() == len(self.base.alphabet)

    def test_initial_state_wraps_the_base_state(self):
        base_state, subround, collected = self.lowered.initial_state()
        assert base_state == self.base.initial_state()
        assert subround == 0
        assert collected == ()

    def test_query_letter_follows_the_subround_index(self):
        for index, letter in enumerate(self.base.alphabet):
            state = ("DOWN1", index, (0,) * index)
            assert self.lowered.query_letter(state) == letter

    def test_intermediate_subrounds_collect_counts_silently(self):
        state = self.lowered.initial_state()
        (choice,) = self.lowered.options(state, 1)
        assert not choice.transmits()
        assert choice.state[1] == 1          # next subround
        assert choice.state[2] == (1,)       # collected count

    def test_last_subround_applies_the_base_transition(self):
        # Feed an all-zero observation: a DOWN1 node must move to UP0 and
        # transmit the UP0 letter, exactly like the base protocol.
        state = self.lowered.initial_state()
        for _ in range(len(self.base.alphabet) - 1):
            (choice,) = self.lowered.options(state, 0)
            state = choice.state
        (final,) = self.lowered.options(state, 0)
        assert final.state[0] == "UP0"
        assert final.emit == "UP0"
        assert final.state[1] == 0 and final.state[2] == ()

    def test_output_states_delegate_to_the_base(self):
        assert self.lowered.is_output_state(("WIN", 0, ()))
        assert self.lowered.output_value(("WIN", 0, ())) is True
        assert not self.lowered.is_output_state(("UP1", 3, (0, 0, 0)))

    def test_census_remains_constant_size(self):
        assert self.lowered.census().is_constant_size()


class TestLoweredExecution:
    def test_lowered_mis_is_correct_and_costs_sigma_times_more(self):
        graph = gnp_random_graph(24, 0.2, seed=5)
        # Picks are keyed by round, so the base run takes the lowering's clock
        # to draw the same coins: |Sigma| rounds per base round.
        base_result = run_synchronous(graph, _StretchedProtocol(MISProtocol()), seed=9)
        lowered_result = run_synchronous(
            graph, SingleQueryProtocol(MISProtocol()), seed=9, max_rounds=200_000
        )
        assert is_maximal_independent_set(graph, mis_from_result(lowered_result))
        sigma = len(MISProtocol().alphabet)
        base_rounds, remainder = divmod(base_result.rounds, sigma)
        assert remainder == 0
        assert lowered_result.rounds == base_rounds * sigma
        assert lowered_result.outputs == base_result.outputs
