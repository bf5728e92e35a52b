"""The sanctioned environment seam (``repro.config.env_text``/``env_flag``).

PR 9 rerouted every scattered ``os.environ`` read through these two
helpers so rule ND03 can enforce a single audit point. These tests pin
the *legacy* semantics of each rerouted knob — the refactor must be
behaviour-preserving bit for bit, including the quirks (no case folding,
no stripping in flag checks, stripping in numeric ones).
"""

import pytest

from repro.config import env_flag, env_text


class TestEnvText:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEAM_PROBE", raising=False)
        assert env_text("REPRO_SEAM_PROBE") == ""
        assert env_text("REPRO_SEAM_PROBE", "SMALL") == "SMALL"

    def test_set_returns_raw_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEAM_PROBE", "  MeDiUm  ")
        assert env_text("REPRO_SEAM_PROBE") == "  MeDiUm  "


class TestEnvFlag:
    """``env_flag`` must match the historical membership test
    ``value in ("1", "true", "yes")`` exactly."""

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SEAM_PROBE", value)
        assert env_flag("REPRO_SEAM_PROBE") is True

    @pytest.mark.parametrize(
        "value",
        # The legacy sites did NOT strip or lowercase: "TRUE", " 1" and
        # "yes " were all falsy before the refactor and must stay so.
        ["", "0", "TRUE", "Yes", " 1", "1 ", "on", "y", "no"],
    )
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SEAM_PROBE", value)
        assert env_flag("REPRO_SEAM_PROBE") is False

    def test_unset_is_falsy(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEAM_PROBE", raising=False)
        assert env_flag("REPRO_SEAM_PROBE") is False


class TestReroutedKnobs:
    """Each consumer that moved onto the seam keeps its old behaviour."""

    def test_cache_enabled(self, monkeypatch):
        from repro.core.result_cache import enabled

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert enabled() is True
        monkeypatch.setenv("REPRO_NO_CACHE", "yes")
        assert enabled() is False
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert enabled() is True

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        from repro.core.result_cache import cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", f"  {tmp_path}  ")
        assert cache_dir() == tmp_path

    def test_default_jobs(self, monkeypatch):
        from repro.core.supervisor import default_jobs
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            default_jobs()

    def test_supervisor_config_from_env(self, monkeypatch):
        from repro.core.supervisor import SupervisorConfig
        from repro.errors import ConfigError

        monkeypatch.setenv("REPRO_JOB_TIMEOUT", " 2.5 ")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
        config = SupervisorConfig.from_env()
        assert config.timeout == 2.5
        assert config.max_retries == 4
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.raises(ConfigError):
            SupervisorConfig.from_env()

    def test_default_scale(self, monkeypatch):
        from repro.analysis.figures import default_scale
        from repro.trace.generator import TraceScale

        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert default_scale() is TraceScale.SMALL
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert default_scale() is TraceScale.TINY

    def test_faults_active(self, monkeypatch):
        from repro.testing import faults

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.active() is False
        # Whitespace-only specs were always treated as "off".
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert faults.active() is False
        monkeypatch.setenv("REPRO_FAULTS", "job/*:fail:p=1")
        assert faults.active() is True
