"""Unit tests for result export (analysis.io) and ASCII visualisation."""

import json

from repro.analysis.experiments import experiment_model_requirements
from repro.analysis.io import (
    execution_to_dict,
    read_sweep_json,
    report_to_dict,
    sweep_to_rows,
    write_execution_json,
    write_report_json,
    write_reports_markdown,
    write_sweep_csv,
    write_sweep_json,
)
from repro.analysis.visualize import (
    MIS_GLYPHS,
    capture_history,
    default_glyph,
    degree_profile,
    render_mis_timeline,
    render_output_summary,
    render_timeline,
)
from repro.api import RunSpec, Simulation
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.protocols.broadcast import BroadcastProtocol, broadcast_inputs
from repro.protocols.mis import MISProtocol


def small_sweep():
    return Simulation().sweep(
        RunSpec(protocol="mis", seed=1), families=["cycle"], sizes=[6, 9], repetitions=2
    )


class TestSweepExport:
    def test_rows_contain_all_standard_fields(self):
        rows = sweep_to_rows(small_sweep())
        assert len(rows) == 4
        assert {"family", "size", "cost", "valid"} <= set(rows[0])

    def test_csv_roundtrip_shape(self, tmp_path):
        path = write_sweep_csv(small_sweep(), tmp_path / "sweep.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header plus one line per record
        assert lines[0].startswith("family,size")

    def test_json_roundtrip_preserves_records(self, tmp_path):
        sweep = small_sweep()
        path = write_sweep_json(sweep, tmp_path / "sweep.json")
        loaded = read_sweep_json(path)
        assert loaded.protocol_name == sweep.protocol_name
        assert [r.cost for r in loaded.records] == [r.cost for r in sweep.records]
        assert loaded.mean_cost_by_size() == sweep.mean_cost_by_size()


class TestReportExport:
    def test_report_to_dict_and_json(self, tmp_path):
        report = experiment_model_requirements()
        payload = report_to_dict(report)
        assert payload["experiment_id"] == "E12"
        path = write_report_json(report, tmp_path / "e12.json")
        assert json.loads(path.read_text())["passed"] is True

    def test_markdown_export_contains_tables(self, tmp_path):
        report = experiment_model_requirements()
        path = write_reports_markdown([report], tmp_path / "reports.md")
        text = path.read_text()
        assert "## E12" in text
        assert "| protocol |" in text or "| protocol" in text


class TestExecutionExport:
    def test_execution_to_dict(self, tmp_path):
        graph = path_graph(4)
        result = Simulation().run_protocol(
            graph, BroadcastProtocol(), seed=1, inputs=broadcast_inputs(0), backend="python"
        )
        payload = execution_to_dict(result)
        assert payload["num_nodes"] == 4
        assert payload["reached_output"] is True
        path = write_execution_json(result, tmp_path / "run.json")
        assert json.loads(path.read_text())["protocol"] == "broadcast"


class TestVisualisation:
    def test_capture_history_starts_with_the_initial_configuration(self):
        graph = path_graph(5)
        history = capture_history(graph, MISProtocol(), seed=1)
        assert history[0] == ("DOWN1",) * 5
        assert len(history) >= 2

    def test_render_timeline_has_one_row_per_round(self):
        graph = cycle_graph(6)
        text = render_timeline(graph, MISProtocol(), seed=2, glyphs=MIS_GLYPHS)
        lines = text.splitlines()
        assert lines[0].startswith("nodes 0..5")
        assert all(line.startswith("round") for line in lines[1:])

    def test_render_mis_timeline_ends_with_winners_and_losers(self):
        text = render_mis_timeline(star_graph(6), seed=3)
        final_row = text.splitlines()[-1].split("| ")[1]
        assert set(final_row) <= {"#", "."}
        assert "#" in final_row

    def test_wide_graphs_are_truncated(self):
        from repro.graphs import empty_graph

        text = render_timeline(empty_graph(200), MISProtocol(), seed=1, max_nodes=50)
        assert "(truncated)" in text

    def test_render_output_summary(self):
        graph = path_graph(4)
        summary = render_output_summary(graph, {0: True, 1: False, 2: True, 3: False})
        assert summary == "#.#."

    def test_default_glyph(self):
        assert default_glyph("WIN") == "W"
        assert default_glyph(("pause", 1)) == "("

    def test_degree_profile_lists_every_degree(self):
        text = degree_profile(star_graph(4))
        assert "deg   1" in text and "deg   4" in text
