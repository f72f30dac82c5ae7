"""Unit tests for the sweep harness, trace analysis and reporting helpers."""

from repro.analysis.reporting import ExperimentReport, format_table
from repro.analysis.sweep import geometric_sizes
from repro.analysis.tournaments import trace_mis_execution
from repro.api import RunSpec, Simulation
from repro.graphs import gnp_random_graph
from repro.protocols.mis import DOWN1, DOWN2, LOSE, UP_STATES, WIN, mis_from_result
from repro.verification import is_maximal_independent_set


class TestSweepHarness:
    def test_geometric_sizes(self):
        assert geometric_sizes(16, 128) == [16, 32, 64, 128]
        assert geometric_sizes(10, 90, factor=3) == [10, 30, 90]

    def test_sweep_runs_every_cell(self):
        sweep = Simulation().sweep(
            RunSpec(protocol="mis", seed=1),
            families=["cycle"],
            sizes=[6, 12],
            repetitions=2,
            validator=lambda graph, result: is_maximal_independent_set(
                graph, mis_from_result(result)
            ),
        )
        assert len(sweep.records) == 4
        assert sweep.all_valid()
        assert sweep.sizes() == [6, 12]
        assert sweep.families() == ["cycle"]

    def test_sweep_mean_cost_by_size(self):
        sweep = Simulation().sweep(
            RunSpec(protocol="mis", seed=2), families=["path"], sizes=[8], repetitions=3
        )
        by_size = sweep.mean_cost_by_size()
        assert set(by_size) == {8}
        assert by_size[8] > 0

    def test_sweep_is_reproducible(self):
        families = {"gnp": lambda n, seed=None: gnp_random_graph(n, 0.3, seed)}
        first, second = (
            Simulation().sweep(
                RunSpec(protocol="mis", seed=7), families=families, sizes=[12], repetitions=2
            )
            for _ in range(2)
        )
        assert [r.cost for r in first.records] == [r.cost for r in second.records]


class TestMISTrace:
    def setup_method(self):
        self.graph = gnp_random_graph(24, 0.2, seed=5)
        self.trace, _ = trace_mis_execution(self.graph, seed=5)

    def test_every_node_ends_in_an_output_state(self):
        final = self.trace.history[-1]
        assert all(state in (WIN, LOSE) for state in final)

    def test_turns_partition_the_active_prefix(self):
        for node in self.graph.nodes:
            turns = self.trace.turns_of(node)
            assert turns, "every node is active for at least one round"
            # Turns are contiguous and ordered.
            for earlier, later in zip(turns, turns[1:]):
                assert later.first_round == earlier.last_round + 1
                assert earlier.state != later.state

    def test_tournaments_start_with_down1(self):
        for node in self.graph.nodes:
            for tournament in self.trace.tournaments_of(node):
                assert tournament.turns[0].state == DOWN1
                assert tournament.num_turns >= 2

    def test_tournament_turn_sequence_follows_the_outer_loop(self):
        for node in self.graph.nodes:
            for tournament in self.trace.tournaments_of(node):
                states = [turn.state for turn in tournament.turns]
                # After DOWN1 the node climbs UP states, possibly ending at DOWN2.
                assert all(state in UP_STATES for state in states[1:-1])
                assert states[-1] in UP_STATES + (DOWN2,)

    def test_tournament_lengths_look_geometric(self):
        lengths = self.trace.tournament_lengths()
        assert lengths
        assert all(length >= 3 for length in lengths)
        assert 3.0 <= sum(lengths) / len(lengths) <= 6.0

    def test_edge_decay_is_monotone_and_reaches_zero(self):
        decay = self.trace.edge_decay()
        assert decay[0] == self.graph.num_edges
        assert decay[-1] == 0
        assert all(later <= earlier for earlier, later in zip(decay, decay[1:]))

    def test_decay_factors_are_below_one(self):
        factors = self.trace.decay_factors()
        assert factors
        assert all(factor <= 1.0 for factor in factors)

    def test_nodes_reaching_tournament_one_is_everyone(self):
        assert self.trace.nodes_reaching_tournament(1) == set(self.graph.nodes)

    def test_a_run_at_n_128_has_tournaments(self):
        trace, _ = trace_mis_execution(gnp_random_graph(128, 0.06, seed=7), seed=11)
        assert trace.tournament_lengths()

    def test_edge_decay_at_n_192_runs_from_every_edge_to_none(self):
        graph = gnp_random_graph(192, 4.0 / 192, seed=8)
        trace, _ = trace_mis_execution(graph, seed=13)
        decay = trace.edge_decay()
        assert decay[0] == graph.num_edges and decay[-1] == 0


class TestReporting:
    def test_format_table_aligns_columns(self):
        table = format_table(["n", "rounds"], [[16, 10.5], [1024, 40]])
        lines = table.splitlines()
        assert lines[0].startswith("n")
        assert "10.500" in table
        assert len(lines) == 4

    def test_experiment_report_render(self):
        report = ExperimentReport(
            experiment_id="E0",
            title="sanity",
            paper_claim="nothing",
            headers=["a", "b"],
        )
        report.add_row(1, 2)
        report.conclusion = "fine"
        report.passed = True
        text = report.render()
        assert "E0" in text and "paper claim" in text and "shape holds : yes" in text
