"""Tests for supervised job execution (repro.core.supervisor),
run manifests (repro.core.manifest), and the supervised suite driver
(run_suite_supervised): per-job fault isolation, timeouts and retries,
manifest streaming + resume, and the strict run_suite contract.

Crash and hang injections only ever target pooled runs (two or more
jobs, ``jobs=2``): the inline path offers no containment, and an
``os._exit`` there would take the test process down with it.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig, baseline_config, ndp_config
from repro.core import manifest as manifest_mod
from repro.core.experiment import run_suite, run_suite_supervised
from repro.core.policies import NDP_CTRL_BMAP, NDP_CTRL_TMAP
from repro.core.supervisor import (
    JobFailure,
    SuiteJob,
    SupervisorConfig,
    run_supervised,
)
from repro.errors import ConfigError, JobExecutionError
from repro.trace.generator import TraceScale

POLICIES = (NDP_CTRL_BMAP,)


@pytest.fixture
def no_persistent_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)


def _job(workload: str, **kwargs) -> SuiteJob:
    return SuiteJob(workload, POLICIES, TraceScale.TINY, 0, **kwargs)


class TestSupervisorConfig:
    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "3")
        cfg = SupervisorConfig.from_env()
        assert cfg.timeout == 12.5
        assert cfg.max_retries == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "3")
        cfg = SupervisorConfig.from_env(timeout=1.0, max_retries=0)
        assert cfg.timeout == 1.0
        assert cfg.max_retries == 0

    @pytest.mark.parametrize(
        "env, value",
        [("REPRO_JOB_TIMEOUT", "soon"), ("REPRO_MAX_RETRIES", "few")],
    )
    def test_bad_env_rejected(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ConfigError):
            SupervisorConfig.from_env()

    @pytest.mark.parametrize(
        "kwargs", [{"timeout": -1.0}, {"timeout": 0.0}, {"max_retries": -1}]
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorConfig.from_env(**kwargs)

    def test_backoff_is_capped(self):
        from repro.core.supervisor import _backoff

        cfg = SupervisorConfig(backoff_base=0.1, backoff_cap=2.0)
        delays = [_backoff(cfg, n) for n in (1, 2, 3, 10)]
        assert delays == [0.1, 0.2, 0.4, 2.0]
        assert delays == sorted(delays)


class TestHealthyRuns:
    def test_outcomes_in_submission_order(self, no_persistent_cache):
        outcomes = run_supervised([_job("SP"), _job("RD")], n_jobs=2)
        assert [o.job.workload for o in outcomes] == ["SP", "RD"]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert all(o.failure is None for o in outcomes)

    def test_pool_matches_inline(self, no_persistent_cache):
        """Supervision must not change results: pooled and inline
        executions of the same jobs are bit-identical."""
        jobs = [_job("SP"), _job("RD")]
        pooled = run_supervised(jobs, n_jobs=2)
        inline = run_supervised(jobs, n_jobs=1)
        assert all(o.ran_inline for o in inline)
        for a, b in zip(pooled, inline):
            assert a.results == b.results

    def test_pickle_hostile_job_isolated(self, no_persistent_cache):
        """One unpicklable job no longer demotes the batch: it runs
        inline while its picklable sibling still uses the pool."""

        class LocalConfig(SystemConfig):
            """Defined in the test body: unpicklable by reference."""

        hostile = _job("SP", variants=(LocalConfig(),))
        friendly = _job("RD")
        outcomes = run_supervised([hostile, friendly], n_jobs=2)
        by_name = {o.job.workload: o for o in outcomes}
        assert by_name["SP"].ok and by_name["SP"].ran_inline
        assert by_name["RD"].ok and not by_name["RD"].ran_inline


class TestInjectedFailures:
    def test_crash_is_contained(self, no_persistent_cache, monkeypatch):
        """A worker death fails only the crashing job; its pool
        neighbours are replayed and complete."""
        monkeypatch.setenv("REPRO_FAULTS", "crash@job/SP")
        outcomes = run_supervised(
            [_job("SP"), _job("RD")],
            n_jobs=2,
            config=SupervisorConfig(max_retries=0),
        )
        by_name = {o.job.workload: o for o in outcomes}
        assert not by_name["SP"].ok
        assert by_name["SP"].failure.kind == "crash"
        assert by_name["RD"].ok

    def test_error_failure_is_structured(self, no_persistent_cache, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        outcomes = run_supervised(
            [_job("SP"), _job("RD")],
            n_jobs=2,
            config=SupervisorConfig(max_retries=1),
        )
        failure = {o.job.workload: o for o in outcomes}["SP"].failure
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert failure.attempts == 2  # initial + 1 retry, all charged
        assert "InjectedFault" in failure.message
        assert failure.workload == "SP"
        assert failure.policies == tuple(p.label for p in POLICIES)
        assert "SP" in failure.describe()
        assert failure.to_dict()["kind"] == "error"

    def test_timeout_and_retry_exhaustion(self, no_persistent_cache, monkeypatch):
        """A hung worker trips the job timeout, is charged an attempt
        per try, and fails as kind=timeout once retries run out —
        without taking the healthy job with it."""
        monkeypatch.setenv("REPRO_FAULTS", "hang@job/RD:t=60")
        outcomes = run_supervised(
            [_job("SP"), _job("RD")],
            n_jobs=2,
            config=SupervisorConfig(timeout=1.5, max_retries=1),
        )
        by_name = {o.job.workload: o for o in outcomes}
        assert by_name["SP"].ok
        failure = by_name["RD"].failure
        assert failure.kind == "timeout"
        assert failure.attempts == 2

    def test_timeout_enforced_even_serial(
        self, no_persistent_cache, monkeypatch
    ):
        """A configured timeout forces a (one-worker) pool: on a
        single-CPU machine a hung job must still time out instead of
        hanging the suite — and a crash must still be contained."""
        monkeypatch.setenv("REPRO_FAULTS", "hang@job/SP:t=60")
        (outcome,) = run_supervised(
            [_job("SP")],
            n_jobs=1,
            config=SupervisorConfig(timeout=1.5, max_retries=0),
        )
        assert not outcome.ran_inline
        assert outcome.failure.kind == "timeout"

    def test_transient_fault_recovered_by_retry(
        self, no_persistent_cache, monkeypatch, tmp_path
    ):
        """An n=1 fault fires on the first attempt only (the firing
        budget is shared across worker processes through the state
        directory), so the retry succeeds."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP:n=1")
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path / "claims"))
        outcomes = run_supervised(
            [_job("SP"), _job("RD")],
            n_jobs=2,
            config=SupervisorConfig(max_retries=2),
        )
        by_name = {o.job.workload: o for o in outcomes}
        assert by_name["SP"].ok
        assert by_name["SP"].attempts == 2
        assert by_name["RD"].attempts == 1

    def test_run_suite_stays_strict(self, no_persistent_cache, monkeypatch):
        """The legacy entry point still raises on any failure — as a
        structured JobExecutionError carrying the failures."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        with pytest.raises(JobExecutionError) as excinfo:
            run_suite(
                POLICIES, scale=TraceScale.TINY, workloads=["SP", "RD"], jobs=2
            )
        (failure,) = excinfo.value.failures
        assert failure.workload == "SP"


class TestManifestAndResume:
    def _run(self, manifest_path, resume=False, workloads=("SP", "RD"), **kwargs):
        return run_suite_supervised(
            POLICIES,
            scale=TraceScale.TINY,
            workloads=list(workloads),
            jobs=2,
            manifest_path=str(manifest_path),
            resume=resume,
            **kwargs,
        )

    def test_manifest_records_every_outcome(
        self, no_persistent_cache, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        report = self._run(path)
        assert report.ok and not report.failures
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header, entries = lines[0], lines[1:]
        assert header["kind"] == "manifest"
        assert header["run"]  # fingerprint present
        assert {e["workload"] for e in entries} == {"SP", "RD"}
        assert all(e["status"] == "ok" for e in entries)
        assert all("results" in e for e in entries)

    def test_resume_skips_completed_points(
        self, no_persistent_cache, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        first = self._run(path)
        resumed = self._run(path, resume=True)
        assert resumed.outcomes == []  # nothing re-ran
        assert resumed.resumed == sum(len(v) for v in first.results.values())
        for name in first.results:
            for label in first.results[name]:
                assert resumed.results[name][label] == first.results[name][label]

    def test_resume_reruns_only_failed_points(
        self, no_persistent_cache, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        broken = self._run(path, max_retries=0)
        assert [f.workload for f in broken.failures] == ["SP"]
        assert "SP" not in broken.results

        monkeypatch.delenv("REPRO_FAULTS")
        healed = self._run(path, resume=True, max_retries=0)
        assert [o.job.workload for o in healed.outcomes] == ["SP"]
        assert not healed.failures
        assert set(healed.results) == {"SP", "RD"}

    def test_resume_rejects_foreign_manifest(
        self, no_persistent_cache, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        self._run(path)
        with pytest.raises(ConfigError):
            self._run(path, resume=True, seed=1)  # different run fingerprint

    def test_resume_requires_manifest(self, no_persistent_cache):
        with pytest.raises(ConfigError):
            run_suite_supervised(
                POLICIES, scale=TraceScale.TINY, workloads=["SP"], resume=True
            )

    def test_truncated_tail_tolerated(self, no_persistent_cache, tmp_path):
        """A run killed mid-write leaves a partial last line; resume
        must ignore it and re-run only what that line would have
        covered."""
        path = tmp_path / "run.jsonl"
        self._run(path)
        with open(path, "a") as handle:
            handle.write('{"kind": "job", "workload": "SP", "stat')
        resumed = self._run(path, resume=True)
        assert not resumed.failures
        assert set(resumed.results) == {"SP", "RD"}

    def test_load_manifest_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            manifest_mod.load_manifest(str(tmp_path / "absent.jsonl"))


#: Two Section 6.5 cross-stack bandwidth ratios: one supervised job per
#: workload carries both.
SWEEP = (ndp_config(cross_stack_ratio=0.25), ndp_config(cross_stack_ratio=1.0))


def _sweep(manifest_path=None, resume=False, variants=SWEEP, **kwargs):
    return run_suite_supervised(
        (NDP_CTRL_TMAP,),
        scale=TraceScale.TINY,
        workloads=["SP", "RD", "BP"],
        jobs=2,
        variants=variants,
        manifest_path=str(manifest_path) if manifest_path else None,
        resume=resume,
        **kwargs,
    )


def _job_keys(name, variants=SWEEP):
    return [
        manifest_mod.job_key(name, TraceScale.TINY, 0, cfg, baseline_config())
        for cfg in variants
    ]


class TestVariantSweeps:
    def test_job_fault_fails_the_workload_in_every_variant(
        self, no_persistent_cache, monkeypatch, tmp_path
    ):
        """A fault injected at ``job/SP`` fails SP's one job, which
        carries every variant: SP is missing from every variant and
        recorded failed under every variant's manifest key, the other
        workloads match a clean sweep bit for bit, and a resume re-runs
        only SP's job."""
        clean = _sweep()
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        broken = _sweep(path, max_retries=0)
        assert [f.workload for f in broken.failures] == ["SP"]
        assert len(broken.results) == len(SWEEP)
        for got, expected in zip(broken.results, clean.results):
            assert "SP" not in got
            assert got == {k: v for k, v in expected.items() if k != "SP"}
        _header, entries = manifest_mod.load_manifest(path)
        for key in _job_keys("SP"):
            assert entries[key]["status"] == "failed"

        monkeypatch.delenv("REPRO_FAULTS")
        healed = _sweep(path, resume=True, max_retries=0)
        assert [o.job.workload for o in healed.outcomes] == ["SP"]
        assert healed.ok and healed.results == clean.results

    def test_manifest_records_each_variant_under_its_job_key(
        self, no_persistent_cache, tmp_path
    ):
        """One entry per (workload, variant), keyed exactly as a
        one-variant run of that configuration keys it."""
        path = tmp_path / "sweep.jsonl"
        report = _sweep(path)
        _header, entries = manifest_mod.load_manifest(path)
        for name in ("SP", "RD", "BP"):
            for key, results in zip(_job_keys(name), report.results):
                restored = manifest_mod.completed_results(entries[key])
                assert restored == results[name]

    def test_resume_with_other_variants_is_refused(
        self, no_persistent_cache, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        _sweep(path)
        again = _sweep(path, resume=True)
        assert again.outcomes == [] and again.resumed == 2 * 3 * 2
        for variants in (
            SWEEP[:1],
            SWEEP[::-1],
            (SWEEP[0], ndp_config(cross_stack_ratio=0.5)),
        ):
            with pytest.raises(ConfigError):
                _sweep(path, resume=True, variants=variants)

    def test_variants_and_ndp_configuration_are_exclusive(self):
        with pytest.raises(ConfigError):
            _sweep(ndp_configuration=SWEEP[0])
        with pytest.raises(ConfigError):
            _sweep(variants=())


class TestJobEvents:
    def test_recorder_sees_job_lifecycle(
        self, no_persistent_cache, monkeypatch
    ):
        from repro.obs import TraceRecorder, event_from_dict

        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        recorder = TraceRecorder()
        report = run_suite_supervised(
            POLICIES,
            scale=TraceScale.TINY,
            workloads=["SP", "RD"],
            jobs=2,
            max_retries=0,
            recorder=recorder,
        )
        assert len(report.failures) == 1
        by_name = {event.workload: event for event in recorder.jobs}
        assert by_name["SP"].status == "failed"
        assert by_name["SP"].error and "InjectedFault" in by_name["SP"].error
        assert by_name["RD"].status == "ok"
        assert by_name["RD"].error is None
        for event in recorder.jobs:
            round_tripped = event_from_dict(event.to_dict())
            assert round_tripped == event
