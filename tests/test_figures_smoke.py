"""Smoke tests for the figure drivers at TINY scale.

These keep the benchmark harness honest without its run time: every
driver must produce a well-formed FigureResult whose render() includes
all suite columns. The timing-heavy drivers run on a two-workload
subset where the API allows it, TINY scale otherwise.
"""

import pytest

from repro import TraceScale
from repro.analysis.figures import (
    FigureResult,
    default_scale,
    figure5,
    figure6,
    section66,
)
from repro.errors import ConfigError
from repro.workloads.suite import SUITE_ORDER


class TestFigureResult:
    def test_render_is_table(self):
        result = FigureResult(
            figure_id="F",
            title="t",
            columns=["a"],
            rows={"s": {"a": 1.0}},
        )
        text = result.render()
        assert "F: t" in text
        assert "1.00" in text

    def test_series_lookup(self):
        result = FigureResult("F", "t", ["a"], {"s": {"a": 2.0}})
        assert result.series("s") == {"a": 2.0}
        with pytest.raises(KeyError):
            result.series("missing")


class TestDefaultScale:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "TINY")
        assert default_scale() is TraceScale.TINY

    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert default_scale() is TraceScale.SMALL

    def test_bad_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "HUGE")
        with pytest.raises(ConfigError, match="REPRO_BENCH_SCALE must be one of"):
            default_scale()


class TestAnalysisDrivers:
    """The two analysis-only (no timing simulation) figures run over the
    full suite even in unit tests — they are fast."""

    @pytest.fixture(scope="class")
    def fig5(self):
        return figure5(scale=TraceScale.TINY)

    @pytest.fixture(scope="class")
    def fig6(self):
        return figure6(scale=TraceScale.TINY, fractions=(0.01, 1.0))

    def test_figure5_columns(self, fig5):
        for workload in SUITE_ORDER:
            assert workload in fig5.series("has any fixed offset")

    def test_figure5_buckets_partition(self, fig5):
        from repro.analysis.offsets import BUCKETS

        for workload in SUITE_ORDER:
            total = sum(fig5.series(bucket).get(workload, 0.0) for bucket in BUCKETS)
            assert total == pytest.approx(1.0)

    def test_figure5_renders(self, fig5):
        text = fig5.render()
        assert "Figure 5" in text and "BFS" in text

    def test_figure6_ordering(self, fig6):
        oracle = fig6.series("best mapping in all NDP blocks")
        baseline = fig6.series("baseline mapping")
        assert oracle["AVG"] > baseline["AVG"]

    def test_figure6_bounds(self, fig6):
        for series_name in fig6.rows:
            for value in fig6.series(series_name).values():
                assert 0.0 <= value <= 1.0


class TestSection66Driver:
    def test_values(self):
        result = section66()
        bits = result.series("storage bits")
        assert bits["total"] == 64 * (1920 + 10320) + 9700
        assert "0.11" in result.render()
