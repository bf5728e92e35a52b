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

    def test_failed_jobs_exit_3_then_resume(self, capsys, monkeypatch):
        """A suite with a permanently failing job completes with
        partial results, prints a failure summary, and exits 3; running
        the same command after the fault clears simulates only the
        failed workload (the result cache answers the rest), exits 0 and
        prints what a clean run with the cache off prints."""
        from repro.core import simulator

        argv = ["suite", "--scale", "TINY", "--workloads", "SP", "RD"]
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(argv) == 0
        clean = capsys.readouterr().out
        monkeypatch.delenv("REPRO_NO_CACHE")

        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert "RD:" in captured.out  # the healthy workload still printed
        assert "SP:" not in captured.out
        assert "1 job(s) failed" in captured.err
        assert "re-run the same command" in captured.err

        monkeypatch.delenv("REPRO_FAULTS")
        simulator.stats["runs"] = 0
        assert main(argv) == 0
        assert simulator.stats["runs"] == 5  # SP's baseline + 4 policies
        assert capsys.readouterr().out == clean

    def test_supervision_flags_reach_the_supervisor(
        self, capsys, monkeypatch, tmp_path
    ):
        """``--max-retries``/``--job-timeout`` are exported as
        REPRO_MAX_RETRIES/REPRO_JOB_TIMEOUT: a fault that fires once is
        retried by default but fails the suite under
        ``--max-retries 0``, and a non-positive timeout is a usage
        error."""
        argv = ["suite", "--scale", "TINY", "--workloads", "SP"]
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        # Empty reads as unset; setenv makes the test's teardown remove
        # what the flags export.
        monkeypatch.setenv("REPRO_MAX_RETRIES", "")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "")
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP:n=1")
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "once"))
        assert main([*argv, "--max-retries", "0"]) == 3
        assert "1 job(s) failed" in capsys.readouterr().err

        monkeypatch.setenv("REPRO_MAX_RETRIES", "")
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "again"))
        assert main(argv) == 0  # one default retry absorbs the fault
        capsys.readouterr()

        assert main([*argv, "--job-timeout", "0"]) == 2
        assert "job timeout must be positive" in capsys.readouterr().err

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

    def test_figure_choices_match_registry(self):
        from repro import cli
        from repro.analysis.figures import FIGURE_BUILDERS

        assert set(cli._FIGURES) == set(FIGURE_BUILDERS)

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
