"""Tests for the repro-tom command-line interface."""

import pytest

from repro.cli import main


class TestRun:
    def test_run_baseline(self, capsys):
        assert main(["run", "SP", "--policy", "baseline", "--scale", "TINY"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "ipc" in out

    def test_run_tom(self, capsys):
        assert main(["run", "SP", "--policy", "ctrl+tmap", "--scale", "TINY"]) == 0
        out = capsys.readouterr().out
        assert "speedup over baseline" in out
        assert "offload decisions" in out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "NOPE"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "SP", "--policy", "bogus"])


class TestSuite:
    def test_partial_suite(self, capsys):
        assert main(["suite", "--scale", "TINY", "--workloads", "SP", "RD"]) == 0
        out = capsys.readouterr().out
        assert "SP:" in out and "RD:" in out
        assert "ctrl+tmap" in out

    def test_failed_jobs_exit_3_then_resume(
        self, capsys, monkeypatch, tmp_path
    ):
        """A suite with a permanently failing job completes with
        partial results, prints a failure summary, and exits 3; a
        ``--resume`` run after the fault clears re-runs only the failed
        point and exits 0."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        manifest = str(tmp_path / "run.jsonl")
        code = main(
            ["suite", "--scale", "TINY", "--workloads", "SP", "RD",
             "--max-retries", "0", "--manifest", manifest]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "RD:" in captured.out  # the healthy workload still printed
        assert "1 job(s) failed" in captured.err
        assert "--resume" in captured.err

        monkeypatch.delenv("REPRO_FAULTS")
        code = main(
            ["suite", "--scale", "TINY", "--workloads", "SP", "RD",
             "--max-retries", "0", "--manifest", manifest, "--resume"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "SP:" in captured.out and "RD:" in captured.out

    def test_resume_requires_manifest(self, capsys):
        assert main(["suite", "--scale", "TINY", "--resume"]) == 2
        assert "--resume requires --manifest" in capsys.readouterr().err

    def test_malformed_jobs_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert main(["suite", "--scale", "TINY"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_JOBS must be an integer")
        assert "Traceback" not in err


class TestFigure:
    def test_sec66(self, capsys):
        assert main(["figure", "sec66"]) == 0
        out = capsys.readouterr().out
        assert "Section 6.6" in out and "0.11" in out

    def test_fig5_tiny(self, capsys, monkeypatch):
        assert main(["figure", "fig5", "--scale", "TINY"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_malformed_scale_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "HUGE")
        assert main(["figure", "fig8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_BENCH_SCALE must be one of TINY")
        assert "'HUGE'" in err and "Traceback" not in err


class TestInspect:
    def test_inspect_lib(self, capsys):
        assert main(["inspect", "LIB"]) == 0
        out = capsys.readouterr().out
        assert ".kernel portfolio_b" in out
        assert "offloading candidates (2):" in out
        assert "conditional" in out

    @pytest.mark.parametrize("workload", ["BP", "BFS", "RD"])
    def test_inspect_others(self, capsys, workload):
        assert main(["inspect", workload]) == 0
        assert "offloading candidates" in capsys.readouterr().out


class TestNoCommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err
