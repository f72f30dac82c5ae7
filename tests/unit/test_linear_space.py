"""Unit tests for the linear-space nFSM simulation (Lemma 6.1)."""

from repro.api import Simulation
from repro.automata.nfsm_to_lba import (
    NO_EMISSION,
    LinearSpaceNetworkSimulator,
    simulate_with_linear_space,
)
from repro.graphs import gnp_random_graph, path_graph, star_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol, mis_from_result
from repro.verification import is_maximal_independent_set


class TestTapeLayout:
    def test_tape_holds_two_cells_per_node_plus_one_per_port(self):
        graph = star_graph(3)
        simulator = LinearSpaceNetworkSimulator(graph, MISProtocol(), seed=0)
        expected = 2 * graph.num_nodes + sum(graph.degree(v) for v in graph.nodes)
        assert len(simulator.tape) == expected

    def test_pending_cells_start_empty(self):
        simulator = LinearSpaceNetworkSimulator(path_graph(3), MISProtocol(), seed=0)
        assert all(
            simulator.tape[simulator._pending_cell(node)] == NO_EMISSION
            for node in range(3)
        )

    def test_space_report_is_constant_per_entry(self):
        graph = gnp_random_graph(30, 0.2, seed=1)
        simulator = LinearSpaceNetworkSimulator(graph, MISProtocol(), seed=0)
        report = simulator.space_report()
        assert report.extra_cells == report.state_cells + report.pending_cells + report.port_cells
        assert report.extra_cells_per_entry <= 2.0

    def test_tape_never_grows_during_a_run(self):
        graph = gnp_random_graph(20, 0.2, seed=2)
        simulator = LinearSpaceNetworkSimulator(graph, MISProtocol(), seed=3)
        initial_length = len(simulator.tape)
        simulator.run(max_rounds=200)
        assert len(simulator.tape) == initial_length


class TestFaithfulness:
    def test_broadcast_simulation_matches_the_engine_exactly(self):
        graph = path_graph(7)
        inputs = broadcast_inputs(0)
        reference = Simulation().run_protocol(
            graph, BroadcastProtocol(), seed=5, inputs=inputs, backend="python"
        )
        simulated = simulate_with_linear_space(graph, BroadcastProtocol(), seed=5, inputs=inputs)
        assert simulated.final_states == reference.final_states
        assert simulated.rounds == reference.rounds
        assert simulated.outputs == reference.outputs

    def test_randomized_mis_simulation_matches_with_the_same_seed(self):
        graph = gnp_random_graph(25, 0.2, seed=8)
        reference = Simulation().run_protocol(graph, MISProtocol(), seed=13, backend="python")
        simulated = simulate_with_linear_space(graph, MISProtocol(), seed=13)
        assert simulated.final_states == reference.final_states
        assert simulated.rounds == reference.rounds

    def test_simulated_mis_is_valid(self):
        graph = gnp_random_graph(25, 0.2, seed=9)
        simulated = simulate_with_linear_space(graph, MISProtocol(), seed=21)
        assert simulated.reached_output
        assert is_maximal_independent_set(graph, mis_from_result(simulated))

    def test_metadata_carries_the_space_report(self):
        result = simulate_with_linear_space(path_graph(4), MISProtocol(), seed=1)
        assert result.metadata["space_report"].num_nodes == 4
