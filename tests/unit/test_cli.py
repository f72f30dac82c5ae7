"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_every_subcommand_is_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "mis", "color", "matching", "broadcast", "lba",
                        "experiment", "census"):
            assert command in text

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestProtocolCommands:
    def test_mis_synchronous(self, capsys):
        exit_code = main(["mis", "--nodes", "32", "--seed", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "maximal independent set" in output
        assert "valid" in output and "True" in output

    def test_mis_asynchronous_with_adversary(self, capsys):
        exit_code = main([
            "mis", "--nodes", "8", "--family", "gnp_dense", "--seed", "2",
            "--asynchronous", "--adversary", "skewed-rates",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "asynchronous" in output

    def test_mis_json_output(self, capsys):
        exit_code = main(["mis", "--nodes", "16", "--seed", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["valid"] is True

    def test_color_command(self, capsys):
        exit_code = main(["color", "--nodes", "40", "--seed", "5"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "3-coloring" in output

    def test_matching_command(self, capsys):
        exit_code = main(["matching", "--nodes", "24", "--seed", "6"])
        assert exit_code == 0
        assert "matching size" in capsys.readouterr().out

    def test_broadcast_command(self, capsys):
        exit_code = main(["broadcast", "--nodes", "20", "--seed", "7", "--source", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "informed nodes" in output


class TestGenericRunCommand:
    #: Full golden payload of one deterministic run: the generic command's
    #: JSON contract, asserted key for key so accidental schema or seed
    #: drift is caught immediately.  The kernel-tier probe is pinned to
    #: "absent" by the autouse fixture below, so the payload (including the
    #: loud degradation note) is identical on hosts with and without numba.
    GOLDEN_MIS_JSON = {
        "problem": "maximal independent set",
        "graph": "gnp_sparse n=16 m=29",
        "mode": "synchronous",
        "cost": "14.0 rounds",
        "mis size": 6,
        "backend": "vectorized (eager table)",
        "backend reason": (
            "reachable closure enumerated; eager table (session-precompiled) "
            "(kernel tier skipped: numba is not installed)"
        ),
        "valid": True,
    }

    @pytest.fixture(autouse=True)
    def _kernel_tier_absent(self, monkeypatch):
        from repro.scheduling import kernels

        monkeypatch.setattr(kernels, "_FORCE_MODE", "absent")

    def test_golden_json_output(self, capsys):
        exit_code = main(["run", "mis", "--nodes", "16", "--seed", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload == self.GOLDEN_MIS_JSON

    def test_alias_produces_the_same_payload(self, capsys):
        main(["run", "mis", "--nodes", "16", "--seed", "1", "--json"])
        generic = json.loads(capsys.readouterr().out)
        main(["mis", "--nodes", "16", "--seed", "1", "--json"])
        alias = json.loads(capsys.readouterr().out)
        assert generic == alias

    def test_list_registries_json(self, capsys):
        exit_code = main(["run", "--list", "--json"])
        census = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert set(census) == {
            "protocols",
            "graph_families",
            "adversaries",
            "churn_policies",
        }
        assert census["protocols"]["mis"] == "maximal independent set"
        assert {"mis", "coloring", "broadcast", "matching"} <= set(census["protocols"])
        assert "random_tree" in census["graph_families"]
        assert "skewed-rates" in census["adversaries"]
        assert "burst" in census["churn_policies"]

    def test_list_registries_human_readable(self, capsys):
        exit_code = main(["run", "--list"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "protocols:" in output and "adversaries:" in output

    def test_list_backends_json(self, capsys):
        exit_code = main(["run", "--list-backends", "--json"])
        census = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert [row["name"] for row in census] == ["python", "vectorized", "kernel"]
        assert [row["rank"] for row in census] == [0, 1, 2]
        by_name = {row["name"]: row for row in census}
        assert by_name["python"]["available"] is True
        assert by_name["vectorized"]["available"] is True
        # The fixture pins the kernel probe to "absent".
        assert by_name["kernel"]["available"] is False
        assert by_name["kernel"]["detail"] == "numba is not installed"
        assert by_name["kernel"]["supports_sharding"] is True

    def test_list_backends_human_readable(self, capsys):
        exit_code = main(["run", "--list-backends"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "backends" in output and "kernel" in output
        assert "UNAVAILABLE" in output  # the pinned-absent kernel tier

    def test_strict_kernel_request_fails_cleanly_without_numba(self, capsys):
        exit_code = main(["run", "mis", "--nodes", "8", "--backend", "kernel"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "kernel tier is unavailable" in captured.err
        assert "numba is not installed" in captured.err

    def test_registered_baseline_is_runnable(self, capsys):
        exit_code = main(["run", "luby", "--nodes", "32", "--seed", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["valid"] is True and payload["mis size"] > 0

    def test_unknown_protocol_reports_candidates(self, capsys):
        exit_code = main(["run", "mehs", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown protocol" in captured.err and "mis" in captured.err

    def test_run_without_protocol_is_an_error(self, capsys):
        exit_code = main(["run"])
        assert exit_code == 2
        assert "name a protocol" in capsys.readouterr().err

    def test_show_spec_round_trips(self, capsys):
        exit_code = main([
            "run", "broadcast", "--nodes", "10", "--seed", "4",
            "--input", "source=3", "--show-spec",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["protocol"] == "broadcast"
        assert payload["inputs"] == {"source": 3}
        from repro.api import RunSpec

        assert RunSpec.from_dict(payload).nodes == 10

    def test_runner_protocols_reject_asynchronous(self, capsys):
        exit_code = main(["run", "luby", "--nodes", "8", "--asynchronous"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "only supports the synchronous environment" in captured.err

    def test_non_object_spec_file_is_a_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "num.json"
        bad.write_text("42")
        exit_code = main(["run", "--spec", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "must be built from a mapping" in captured.err

    def test_missing_spec_file_is_a_clean_error(self, capsys):
        exit_code = main(["run", "--spec", "/nonexistent/workload.json"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot read spec file" in captured.err

    def test_malformed_spec_file_is_a_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        exit_code = main(["run", "--spec", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not valid JSON" in captured.err

    def test_bad_param_syntax_is_a_clean_error(self, capsys):
        exit_code = main(["run", "mis", "--param", "no-equals-sign"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "expects key=value" in captured.err

    def test_spec_file_execution(self, capsys, tmp_path):
        spec_file = tmp_path / "workload.json"
        spec_file.write_text(json.dumps({
            "protocol": "mis", "nodes": 16, "seed": 1, "backend": "vectorized",
        }))
        exit_code = main(["run", "--spec", str(spec_file), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["cost"] == self.GOLDEN_MIS_JSON["cost"]
        assert payload["mis size"] == self.GOLDEN_MIS_JSON["mis size"]

    def test_asynchronous_run_reports_adversary(self, capsys):
        exit_code = main([
            "run", "mis", "--nodes", "8", "--family", "gnp_dense", "--seed", "2",
            "--asynchronous", "--adversary", "bursty", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["mode"] == "asynchronous"
        assert payload["adversary"] == "bursty"
        assert "time units" in payload["cost"]


class TestLBACommand:
    def test_palindrome_word(self, capsys):
        exit_code = main(["lba", "--language", "palindromes", "--word", "abba"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "agrees" in output

    def test_empty_word(self, capsys):
        exit_code = main(["lba", "--language", "parity", "--word", ""])
        assert exit_code == 0

    def test_bad_symbols_are_rejected(self, capsys):
        exit_code = main(["lba", "--language", "parity", "--word", "abc"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not in the alphabet" in captured.err


class TestExperimentCommands:
    def test_quick_experiment(self, capsys):
        exit_code = main(["experiment", "E12", "--quick"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "E12" in output and "shape holds : yes" in output

    def test_quick_e4(self, capsys):
        exit_code = main(["experiment", "E4", "--quick"])
        assert exit_code == 0

    def test_census_command(self, capsys):
        exit_code = main(["census"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "stone-age-mis" in output
