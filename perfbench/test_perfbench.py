"""Self-tests of the benchmark: schema, output check, tracer, and each
workload driver end to end on a TINY input.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # the warm phase runs under repro.guard

import drivers  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- schema --------------------------------------------------------------------


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(drivers.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    reference = json.loads(bench.REFERENCE.read_text())
    for name, cls in drivers.WORKLOADS.items():
        assert reference[name][cls.default_scale]["0"]


def test_per_layer_names_match_the_tracer():
    @dataclass
    class Offload:
        offloaded_warp_instructions: int = 1
        total_warp_instructions: int = 2

    @dataclass
    class Traffic:
        off_chip_total: float = 3.0

    @dataclass
    class Result:
        cycles: float = 10.0
        l1_load_miss_rate: float = 0.5
        l2_load_miss_rate: float = 0.5
        dram_row_hit_rate: float = 0.5
        learned_colocation: float = 0.9
        traffic: Traffic = field(default_factory=Traffic)
        offload: Offload = field(default_factory=Offload)

    produced = {
        **tracing.layer_metrics(tracing.Tracer()),
        **tracing.model_metrics({"p": Result()}),
        "trace.overhead_pct": (0.0, "%"),
    }
    assert {name: unit for name, (_, unit) in produced.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


# -- output check and tracer ---------------------------------------------------


@dataclass(frozen=True)
class FakeTraffic:
    gpu_memory_rx: float = 1.0


@dataclass(frozen=True)
class FakeResult:
    cycles: float
    warp_instructions: int = 7
    traffic: FakeTraffic = FakeTraffic()
    energy: FakeTraffic = FakeTraffic()
    offload: FakeTraffic = FakeTraffic()


def test_digest_mismatch_and_missing_points_fail():
    expected = {
        "a": drivers.point_digest(FakeResult(1.0)),
        "b": drivers.point_digest(FakeResult(2.0)),
    }
    run = bench.Run(workload=None, private=Path("."), expected=expected)
    same = drivers.ColdPass(1.0, {"a": FakeResult(1.0), "b": FakeResult(2.0)}, {})
    run.check_points(same)
    assert (run.attempted, run.failed) == (2, 0)
    off_by_one_cycle = drivers.ColdPass(1.0, {"a": FakeResult(1.0), "b": FakeResult(3.0)}, {})
    run.check_points(off_by_one_cycle)
    assert (run.attempted, run.failed) == (4, 1)
    missing_and_extra = drivers.ColdPass(1.0, {"a": FakeResult(1.0), "c": FakeResult(2.0)}, {})
    run.check_points(missing_and_extra)
    assert (run.attempted, run.failed) == (7, 3)


class FakeWorkload:
    """Warm answers that match the cold one, except for ``wrong_query``."""

    def __init__(self, wrong_query=None):
        self.wrong_query = wrong_query

    def warm_query_plan(self, rng, n):
        return list(range(n))

    def warm_query(self, query):
        return {"row": {"col": 2.0 if query == self.wrong_query else 1.0}}

    def warm_expected(self, query):
        return {"row": {"col": 1.0}}


def checked_run(n_points, wrong_point=None, wrong_query=None, warm_queries=200):
    points = {f"p{i}": FakeResult(float(i)) for i in range(n_points)}
    expected = {point: drivers.point_digest(result) for point, result in points.items()}
    if wrong_point is not None:
        points[wrong_point] = FakeResult(-1.0)
    run = bench.Run(workload=FakeWorkload(wrong_query), private=Path("."), expected=expected)
    run.check_points(drivers.ColdPass(1.0, points, {}))
    run.warm_phase(random.Random(0), warm_queries)
    return run


def test_one_wrong_digest_moves_ok_ratio_past_its_bound():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["ok_ratio"]
    # sec65-sweep-c's 80 points and 200 warm answers: the most points per run
    run = checked_run(80, wrong_point="p7")
    assert (run.attempted, run.failed) == (280, 1)
    assert run.ok_ratio == 79 / 80 < 1.0 - bound
    assert checked_run(80).ok_ratio == 1.0


def test_a_wrong_warm_answer_fails_the_points_it_read():
    # tmap-medium-py's 8 points and 1000 warm answers, one of them wrong
    run = checked_run(8, wrong_query=500, warm_queries=1000)
    assert (run.attempted, run.failed) == (1008, 1)
    assert run.ok_ratio == 0.0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        [0, -1, "outer", 0.0, 10.0],
        [1, 0, "inner", 1.0, 4.0],
        [2, 0, "inner", 5.0, 6.0],
        [3, 2, "inner", 5.2, 5.7],
    ]
    assert tracer.self_times() == pytest.approx({"outer": 6.0, "inner": 4.0})
    assert tracer.totals() == pytest.approx({"outer": 10.0, "inner": 4.0})


# -- end to end ----------------------------------------------------------------


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-small-py",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("workload", list(drivers.WORKLOADS))
def test_workload_on_a_tiny_input(workload):
    done = bench_run("--workload", workload, "--scale", "TINY", "--seconds", "1", "--seed", "3")
    assert done.returncode == 0, done.stderr
    result = result_line(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 10
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.END_TO_END
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_traced_run_on_a_tiny_input():
    done = bench_run("--workload", "tmap-medium-py", "--scale", "TINY", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = result_line(done)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    values = {name: metric["value"] for name, metric in metrics.items()}
    # the scalar path: one build per workload, baseline + ctrl+tmap each
    assert values["trace.builds"] == 4 and values["core.simulator.runs"] == 8
    assert values["core.gridrun.lanes"] == 0 and values["core.result_cache.stores"] == 0
