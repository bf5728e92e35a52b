"""Tests for the JSON/CSV export layer."""

import csv
import io
import json
import os

import pytest

from repro.analysis.export import (
    figure_to_csv,
    figure_to_dict,
    result_to_dict,
    result_to_json,
    write_bundle,
    write_figure,
)
from repro.analysis.figures import FigureResult, section66
from repro.errors import AnalysisError


class TestResultExport:
    def test_dict_roundtrips_through_json(self, sp_bmap_result):
        payload = json.loads(result_to_json(sp_bmap_result))
        assert payload["workload"] == "SP"
        assert payload["policy"] == "ctrl+bmap"
        assert payload["ipc"] == pytest.approx(sp_bmap_result.ipc)

    def test_traffic_totals_consistent(self, sp_bmap_result):
        payload = result_to_dict(sp_bmap_result)
        traffic = payload["traffic"]
        assert traffic["off_chip_total"] == pytest.approx(
            traffic["gpu_memory_rx"]
            + traffic["gpu_memory_tx"]
            + traffic["memory_memory"]
        )

    def test_energy_total_consistent(self, sp_bmap_result):
        energy = result_to_dict(sp_bmap_result)["energy_j"]
        assert energy["total"] == pytest.approx(
            energy["sm"] + energy["links"] + energy["dram"]
        )

    def test_offload_decisions_serialized(self, sp_bmap_result):
        payload = result_to_dict(sp_bmap_result)
        assert payload["offload"]["decisions"].get("offloaded", 0) > 0


class TestFigureExport:
    def _figure(self):
        return FigureResult(
            figure_id="Figure X",
            title="test",
            columns=["a", "b"],
            rows={"s1": {"a": 1.0, "b": 2.0}, "s2": {"a": 3.0}},
        )

    def test_csv_shape(self):
        text = figure_to_csv(self._figure())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["series", "a", "b"]
        assert rows[1] == ["s1", "1.0", "2.0"]
        assert rows[2] == ["s2", "3.0", ""]

    def test_dict(self):
        payload = figure_to_dict(self._figure())
        assert payload["figure_id"] == "Figure X"
        assert payload["rows"]["s1"]["b"] == 2.0

    def test_write_figure(self, tmp_path):
        paths = write_figure(self._figure(), str(tmp_path))
        assert len(paths) == 3
        assert {os.path.splitext(p)[1] for p in paths} == {".txt", ".csv", ".json"}
        for path in paths:
            assert os.path.getsize(path) > 0

    def test_write_real_figure(self, tmp_path):
        paths = write_figure(section66(), str(tmp_path))
        with open(paths[2]) as handle:
            payload = json.load(handle)
        assert payload["rows"]["storage bits"]["analyzer/SM"] == 1920


class TestBundle:
    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            write_bundle(str(tmp_path), figure_names=["fig99"])

    def test_cheap_subset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "TINY")
        seen = []
        paths = write_bundle(
            str(tmp_path), figure_names=["sec66", "fig5"], progress=seen.append
        )
        assert seen == ["sec66", "fig5"]
        assert len(paths) == 6
        names = {os.path.basename(p) for p in paths}
        assert "section6_6.txt" in names
        assert "figure5.csv" in names
