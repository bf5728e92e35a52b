"""Tests for the observability layer (repro.obs): null-recorder
no-op guarantees, trace capture consistency, JSONL round-trips, and
`repro-tom report` rendering."""

import json
from pathlib import Path

import pytest

from repro import TOM, TraceScale, WorkloadRunner
from repro.analysis.export import (
    read_trace_jsonl,
    result_to_dict,
    trace_from_jsonl,
    trace_samples_to_csv,
    trace_to_jsonl,
    write_trace_jsonl,
)
from repro.cli import _POLICIES, main
from repro.errors import AnalysisError
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    event_from_dict,
    render_report,
)
from repro.obs.events import (
    AccessEvent,
    DecisionEvent,
    LearningEvent,
    MetricSample,
    RunInfo,
)

GOLDEN_TRACE = Path(__file__).parent / "data" / "golden_trace.jsonl"


def _run(recorder=None, policy=TOM, workload="SP"):
    runner = WorkloadRunner(workload, scale=TraceScale.TINY)
    return runner.run(policy, cache=False, recorder=recorder)


class TestNullRecorderIsNoOp:
    """Tracing off must be invisible: same results, bit for bit."""

    def test_null_recorder_bit_identical(self):
        untraced = result_to_dict(_run())
        explicit_null = result_to_dict(_run(recorder=NullRecorder()))
        assert untraced == explicit_null

    def test_trace_recorder_bit_identical(self):
        untraced = result_to_dict(_run())
        traced = result_to_dict(_run(recorder=TraceRecorder()))
        assert untraced == traced

    def test_null_recorder_hooks_accept_anything(self):
        recorder = NullRecorder()
        assert not recorder.enabled
        recorder.set_run("SP", "ctrl+tmap", "TINY", 0)
        recorder.decision(0, 1, "offloaded", 16)
        recorder.learning(position=13, colocation=1.0, instances_observed=2, scores={})
        recorder.access("gpu", False, {0: 4})
        assert recorder.events() == []

    def test_singleton_is_disabled(self):
        assert NULL_RECORDER.enabled is False


class TestTraceCapture:
    @pytest.mark.parametrize("label", ["ctrl+tmap", "no-ctrl+bmap", "ideal+bmap"])
    def test_decision_counts_match_result(self, label):
        recorder = TraceRecorder()
        result = _run(recorder=recorder, policy=_POLICIES[label])
        assert recorder.decision_counts() == result.offload.decision_breakdown

    def test_events_ordered_and_typed(self):
        recorder = TraceRecorder()
        recorder.set_run("SP", "ctrl+tmap", "TINY", 0)
        _run(recorder=recorder)
        events = recorder.events()
        assert isinstance(events[0], RunInfo)
        kinds = {type(e) for e in events}
        assert {DecisionEvent, AccessEvent, LearningEvent, MetricSample} <= kinds

    def test_learning_event_matches_result(self):
        recorder = TraceRecorder()
        result = _run(recorder=recorder)
        (learning,) = [e for e in recorder.events() if isinstance(e, LearningEvent)]
        assert learning.position == result.learned_bit_position

    def test_recorder_is_single_use(self):
        recorder = TraceRecorder()
        _run(recorder=recorder)
        with pytest.raises(AnalysisError):
            _run(recorder=recorder)

    def test_ring_buffer_drops_are_counted(self):
        recorder = TraceRecorder(access_capacity=4)
        _run(recorder=recorder)
        accesses = [e for e in recorder.events() if isinstance(e, AccessEvent)]
        assert len(accesses) == 4
        assert recorder.dropped["access"] > 0

    def test_traced_run_bypasses_cache(self):
        runner = WorkloadRunner("SP", scale=TraceScale.TINY)
        runner.run(TOM)  # populate the in-memory cache
        recorder = TraceRecorder()
        runner.run(TOM, recorder=recorder)
        assert recorder.decision_counts()  # a cache hit would record nothing


class TestJsonlRoundTrip:
    def test_round_trip_equality(self):
        recorder = TraceRecorder()
        recorder.set_run("SP", "ctrl+tmap", "TINY", 0)
        _run(recorder=recorder)
        events = recorder.events()
        assert trace_from_jsonl(trace_to_jsonl(events)) == events

    def test_file_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        recorder.set_run("SP", "ctrl+tmap", "TINY", 0)
        _run(recorder=recorder)
        events = recorder.events()
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(events, path) == len(events)
        assert read_trace_jsonl(path) == events

    def test_event_from_dict_restores_int_keys(self):
        event = AccessEvent(time=1.0, origin="gpu", is_store=False, stacks={3: 7})
        restored = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert restored == event
        assert list(restored.stacks) == [3]

    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError):
            event_from_dict({"kind": "bogus"})

    def test_golden_trace_round_trips(self):
        events = read_trace_jsonl(GOLDEN_TRACE)
        assert trace_from_jsonl(trace_to_jsonl(events)) == events


class TestReport:
    def test_renders_golden_trace(self):
        out = render_report(read_trace_jsonl(GOLDEN_TRACE))
        assert "SP / ctrl+tmap (TINY, seed 0)" in out
        assert "offload decisions" in out
        assert "offloaded             : 94 (100.0%)" in out
        assert "chose consecutive-bit position 13" in out
        assert "stack routing" in out
        assert "channel utilization timeline" in out

    def test_report_decision_counts_come_from_events(self):
        events = read_trace_jsonl(GOLDEN_TRACE)
        decisions = [e for e in events if isinstance(e, DecisionEvent)]
        out = render_report(events)
        assert f"candidates considered : {len(decisions)}" in out

    def test_samples_csv(self):
        events = read_trace_jsonl(GOLDEN_TRACE)
        csv_text = trace_samples_to_csv(events)
        header, *rows = csv_text.strip().splitlines()
        assert header.startswith("time,window,tx0_util")
        n_samples = sum(1 for e in events if isinstance(e, MetricSample))
        assert len(rows) == n_samples


class TestCli:
    def test_run_trace_then_report(self, tmp_path, capsys):
        trace = tmp_path / "sp.jsonl"
        assert (
            main(
                ["run", "SP", "--scale", "TINY", "--trace", str(trace)]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "trace:" in err and trace.exists()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "offload decisions" in out

    def test_report_samples_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        assert (
            main(
                ["report", str(GOLDEN_TRACE), "--samples-csv", str(csv_path)]
            )
            == 0
        )
        assert csv_path.read_text().startswith("time,window,")

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/trace.jsonl"]) == 2

    def test_trace_window_override(self, tmp_path):
        trace = tmp_path / "sp.jsonl"
        assert (
            main(
                [
                    "run",
                    "SP",
                    "--scale",
                    "TINY",
                    "--trace",
                    str(trace),
                    "--trace-window",
                    "512",
                ]
            )
            == 0
        )
        samples = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if '"sample"' in line
        ]
        assert len(samples) >= 3  # 512-cycle windows on a ~3.7k-cycle run


class TestLinkChecker:
    def test_repo_docs_have_no_broken_links(self):
        import subprocess
        import sys

        script = Path(__file__).parent.parent / "tools" / "check_links.py"
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_missing_tools_path_fails(self, tmp_path):
        """A copy of the checker treats its own tree as the repo: a doc
        naming an existing tools/ file passes, a missing one fails."""
        import shutil
        import subprocess
        import sys

        script = Path(__file__).parent.parent / "tools" / "check_links.py"
        (tmp_path / "tools").mkdir()
        shutil.copy(script, tmp_path / "tools" / "check_links.py")
        readme = tmp_path / "README.md"
        readme.write_text("Run `python tools/check_links.py` first.\n")

        def run():
            return subprocess.run(
                [sys.executable, str(tmp_path / "tools" / "check_links.py")],
                capture_output=True,
                text=True,
            )

        assert run().returncode == 0
        readme.write_text("Then `python tools/gone.py --all`.\n")
        proc = run()
        assert proc.returncode == 1
        assert "README.md:1: missing file -> tools/gone.py" in proc.stderr
