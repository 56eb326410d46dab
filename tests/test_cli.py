"""Smoke tests for the command-line experiment runner."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCLI:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_registry_contract(self):
        # Every registered experiment module exposes the uniform API.
        for name, (module, description) in EXPERIMENTS.items():
            assert callable(module.run), name
            assert callable(module.format_report), name
            assert description

    def test_run_table1_quick(self, capsys):
        assert main(["run", "table1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "PMCx0c1" in out
        assert "finished in" in out

    def test_seed_flag_reseeds_context(self, capsys):
        from repro.experiments import common

        assert main(["run", "table1", "--scale", "quick", "--seed", "7"]) == 0
        assert "finished in" in capsys.readouterr().out
        assert (
            "quick", common.FX8320_SPEC.name, 7, None, "vector"
        ) in common._CONTEXTS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultsCommand:
    def test_faults_smoke(self, capsys):
        assert main([
            "faults", "--scale", "quick", "--rates", "0.0", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "hardened" in out
        assert "PASS" in out
        assert "finished in" in out

    def test_rejects_out_of_range_rates(self, capsys):
        assert main(["faults", "--rates", "0.0", "3.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line error, no traceback

    def test_rejects_unknown_vf_index(self, capsys):
        assert main(["faults", "--vf", "99"]) == 2
        err = capsys.readouterr().err
        assert "no VF state with index 99" in err
        assert "valid:" in err

    def test_rejects_unknown_combination(self, capsys):
        assert main(["faults", "--combo", "no-such-combo"]) == 2
        err = capsys.readouterr().err
        assert "unknown combination 'no-such-combo'" in err
        assert err.count("\n") == 1

    def test_rejects_unwritable_cache_dir(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("plain file\n")
        target = str(blocker / "cache")
        assert main(["faults", "--trace-cache", target]) == 2
        err = capsys.readouterr().err
        assert "not writable" in err
        assert err.count("\n") == 1


class TestBackendCommand:
    def test_record_then_replay(self, tmp_path, capsys):
        trace = str(tmp_path / "session.trace")
        assert main([
            "backend", "record", "--trace", trace, "--intervals", "6",
            "--scale", "quick",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded 6 interval(s)" in out
        assert main(["backend", "replay", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "6 row(s)" in out
        assert "repairs: none" in out

    def test_rejects_unknown_action(self, capsys):
        assert main(["backend", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown backend action 'bogus'" in err
        assert err.count("\n") == 1  # one-line error, no traceback

    def test_replay_requires_trace(self, capsys):
        assert main(["backend", "replay"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--trace" in err
        assert err.count("\n") == 1

    def test_replay_rejects_missing_file(self, tmp_path, capsys):
        assert main([
            "backend", "replay", "--trace", str(tmp_path / "nope.trace"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot open" in err
        assert err.count("\n") == 1

    def test_replay_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace\n")
        assert main(["backend", "replay", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a ppep-trace file" in err
        assert err.count("\n") == 1

    def test_record_rejects_unwritable_target(self, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("in the way\n")
        target = str(blocker / "session.trace")
        assert main(["backend", "record", "--trace", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot write trace" in err
        assert err.count("\n") == 1

    def test_rejects_bad_budgets(self, capsys):
        assert main(["backend", "roundtrip", "--retries", "-1"]) == 2
        assert "--retries must be >= 0" in capsys.readouterr().err
        assert main(["backend", "roundtrip", "--timeout-s", "0"]) == 2
        assert "--timeout-s must be positive" in capsys.readouterr().err
        assert main(["backend", "roundtrip", "--intervals", "0"]) == 2
        assert "--intervals must be positive" in capsys.readouterr().err


class TestRunCacheValidation:
    def test_run_rejects_unwritable_cache_dir(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("plain file\n")
        target = str(blocker / "cache")
        assert main([
            "run", "table1", "--scale", "quick", "--trace-cache", target,
        ]) == 2
        err = capsys.readouterr().err
        assert "not writable" in err
        assert err.count("\n") == 1


class TestFleetCommand:
    def test_fleet_smoke(self, capsys):
        assert main([
            "fleet", "--nodes", "2", "--intervals", "4", "--period", "2",
            "--cap-high", "180", "--cap-low", "100", "--training", "quick",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 nodes" in out
        assert "1 model(s) trained" in out
        assert "settle intervals" in out

    def test_fleet_rejects_nonpositive_nodes(self, capsys):
        assert main(["fleet", "--nodes", "0"]) == 1

    @pytest.mark.parametrize("flag", ["--cap-high", "--cap-low"])
    def test_fleet_rejects_nan_cap_before_training(self, flag, capsys):
        assert main(["fleet", flag, "nan"]) == 1
        assert "non-negative" in capsys.readouterr().out


class TestReportCommand:
    def test_assembles_reports(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig99.txt").write_text("made-up table\n")
        out = tmp_path / "summary.txt"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert "fig99" in text and "made-up table" in text

    def test_missing_directory_fails_cleanly(self, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path / "nope")]) == 1

    def test_empty_directory_fails_cleanly(self, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        assert main(["report", "--results-dir", str(empty)]) == 1


class TestBackendImportAction:
    def test_import_reports_per_vf_mae(self, capsys):
        import os

        recording = os.path.join(
            os.path.dirname(__file__), "data", "turbostat_single.tsv"
        )
        assert main([
            "backend", "import", "--trace", recording, "--scale", "quick",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 interval(s)" in out
        assert "import repairs: none" in out
        assert "VF5" in out

    def test_import_requires_trace(self, capsys):
        assert main(["backend", "import"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--trace" in err
        assert err.count("\n") == 1

    def test_import_rejects_missing_file(self, tmp_path, capsys):
        assert main([
            "backend", "import", "--trace", str(tmp_path / "nope.tsv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot read recording" in err
        assert err.count("\n") == 1

    def test_import_rejects_corrupt_recording(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("Core\tCPU\tPkgWatt\n0\t0\t41.0\n")
        assert main([
            "backend", "import", "--trace", str(bad), "--scale", "quick",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not a turbostat layout" in err
        assert err.count("\n") == 1

    def test_import_rejects_bad_interval(self, tmp_path, capsys):
        bad = tmp_path / "x.tsv"
        bad.write_text("stub\n")
        assert main([
            "backend", "import", "--trace", str(bad), "--interval-s", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert "--interval-s must be positive" in err
