"""Unit tests for the synchronizer compiler (Theorem 3.1)."""

import pytest

from repro.api import Simulation
from repro.compilers.synchronizer import PAUSE, SIMULATE, SynchronizedProtocol, synchronize
from repro.core.errors import CompilationError
from repro.graphs import path_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import DOWN1, MISProtocol
from repro.scheduling.adversary import UniformRandomAdversary


class TestCompiledStructure:
    def setup_method(self):
        self.base = MISProtocol()
        self.compiled = synchronize(self.base)

    def test_only_protocol_objects_are_accepted(self):
        with pytest.raises(CompilationError):
            SynchronizedProtocol("not a protocol")

    def test_alphabet_is_sigma_squared_times_three_trits(self):
        base_size = len(self.base.alphabet)
        assert len(self.compiled.alphabet) == 3 * base_size * base_size

    def test_initial_letter_encodes_the_virtual_round_zero(self):
        sigma0 = self.base.initial_letter
        assert self.compiled.initial_letter == (sigma0, sigma0, 0)

    def test_bounding_parameter_is_unchanged(self):
        assert self.compiled.bounding == self.base.bounding

    def test_initial_state_starts_round_one_in_the_pausing_feature(self):
        tag, base_state, trit, prev_port, index = self.compiled.initial_state()
        assert tag == PAUSE
        assert base_state == DOWN1
        assert trit == 1
        assert prev_port == self.base.initial_letter
        assert index == 0

    def test_output_states_follow_the_base_protocol(self):
        winning = (PAUSE, "WIN", 2, "WIN", 0)
        active = (PAUSE, "UP0", 2, "UP0", 0)
        assert self.compiled.is_output_state(winning)
        assert self.compiled.output_value(winning) is True
        assert not self.compiled.is_output_state(active)

    def test_base_round_of_reports_the_trit(self):
        assert self.compiled.base_round_of((PAUSE, "UP0", 2, "UP0", 0)) == 2

    def test_census_alphabet_is_constant(self):
        census = self.compiled.census()
        assert census.alphabet_size == 147
        assert census.is_constant_size()


class TestPausingFeature:
    def setup_method(self):
        self.base = MISProtocol()
        self.compiled = synchronize(self.base)
        self.state = self.compiled.initial_state()

    def test_pause_queries_a_dirty_letter_of_the_previous_previous_round(self):
        letter = self.compiled.query_letter(self.state)
        prev, cur, trit = letter
        assert trit == (1 - 2) % 3  # dirty trit for round 1

    def test_pause_stalls_while_the_dirty_letter_is_present(self):
        (choice,) = self.compiled.options(self.state, 1)
        assert choice.state == self.state
        assert not choice.transmits()

    def test_pause_advances_when_the_dirty_letter_is_absent(self):
        (choice,) = self.compiled.options(self.state, 0)
        assert choice.state[0] == PAUSE
        assert choice.state[4] == 1
        assert not choice.transmits()

    def test_pause_eventually_enters_the_simulating_feature(self):
        state = self.state
        dirty_letters = len(self.base.alphabet) ** 2
        for _ in range(dirty_letters):
            (choice,) = self.compiled.options(state, 0)
            state = choice.state
        assert state[0] == SIMULATE


class TestSimulatingFeature:
    def setup_method(self):
        self.base = BroadcastProtocol()
        self.compiled = synchronize(self.base)

    def _skip_pausing(self, state):
        while state[0] == PAUSE:
            (choice,) = self.compiled.options(state, 0)
            state = choice.state
        return state

    def test_simulation_applies_the_base_transition_and_transmits(self):
        state = self._skip_pausing(self.compiled.initial_state("source"))
        # The broadcast SOURCE state queries the TOKEN letter; feed zero
        # counts through all passes until the base transition fires.
        emitted = None
        for _ in range(1000):
            (choice,) = self.compiled.options(state, 0)
            state = choice.state
            if choice.transmits():
                emitted = choice.emit
                break
        assert emitted is not None, "the simulating feature never applied the base transition"
        prev, cur, trit = emitted
        assert prev == "QUIET"      # the underlying port content before round 1
        assert cur == "TOKEN"       # the source transmits the token in round 1
        assert trit == 1
        assert state[0] == PAUSE    # the next round's pausing feature
        assert state[1] == "INFORMED"
        assert state[2] == 2        # trit advances

    def test_changed_gamma_counts_restart_the_simulating_feature(self):
        state = self._skip_pausing(self.compiled.initial_state(None))
        # Pass 1 sees a count of 1 for the first Γ letter, pass 3 sees 0 —
        # the feature must restart rather than commit a corrupted observation.
        alphabet_size = len(self.base.alphabet)
        # Pass 1 (first letter sees 1, rest 0).
        (choice,) = self.compiled.options(state, 1)
        state = choice.state
        for _ in range(alphabet_size - 1):
            (choice,) = self.compiled.options(state, 0)
            state = choice.state
        # Pass 2: all zero.
        for _ in range(alphabet_size):
            (choice,) = self.compiled.options(state, 0)
            state = choice.state
        # Pass 3: all zero -> mismatch with pass 1.
        for _ in range(alphabet_size):
            (choice,) = self.compiled.options(state, 0)
            state = choice.state
        assert state[0] == SIMULATE
        assert state[4] == 1          # back to pass 1
        assert state[8] == ()         # accumulators cleared


class TestEndToEnd:
    def test_synchronized_broadcast_is_correct_under_an_adversary(self):
        graph = path_graph(5)
        compiled = synchronize(BroadcastProtocol())
        result = Simulation().run_protocol(
            graph,
            compiled,
            environment="async",
            inputs=broadcast_inputs(0),
            seed=4,
            adversary=UniformRandomAdversary(),
            adversary_seed=11,
            backend="python",
        )
        assert result.reached_output
        assert all(result.outputs[node] for node in graph.nodes)
