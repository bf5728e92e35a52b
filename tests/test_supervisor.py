"""Tests for supervised job execution (repro.core.supervisor) and the
suite driver on top of it (run_suite, run_points): per-job fault
isolation, timeouts and retries, re-runs that the result cache answers,
and the JobExecutionError that carries failures and partial results.

Crash and hang injections only ever target pooled runs (two or more
jobs, ``jobs=2``): the inline path offers no containment, and an
``os._exit`` there would take the test process down with it.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig, baseline_config, ndp_config
from repro.core import experiment, result_cache, simulator
from repro.core.experiment import (
    SuitePoint,
    WorkloadRunner,
    result_key,
    run_points,
    run_suite,
)
from repro.core.policies import BASELINE, NDP_CTRL_BMAP, NDP_CTRL_TMAP
from repro.core.supervisor import (
    JobFailure,
    SuiteJob,
    SupervisorConfig,
    run_supervised,
)
from repro.errors import ConfigError, JobExecutionError
from repro.trace.generator import TraceScale
from tests.conftest import suite_job

POLICIES = (NDP_CTRL_BMAP,)


@pytest.fixture
def no_persistent_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)


def _job(workload: str, config=None) -> SuiteJob:
    return suite_job(workload, POLICIES, config)


@pytest.fixture
def dispatched(monkeypatch):
    """Every job the suite hands the supervisor, in dispatch order;
    tests clear it between runs."""
    jobs = []
    supervise = experiment.run_supervised

    def spy(batch, **kwargs):
        jobs.extend(batch)
        return supervise(batch, **kwargs)

    monkeypatch.setattr(experiment, "run_supervised", spy)
    return jobs


def _partial(run):
    """``(results, failures)`` of ``run()``: the return value, or the
    partial results a JobExecutionError carries."""
    try:
        return run(), []
    except JobExecutionError as error:
        return error.results, error.failures


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

        hostile = _job("SP", LocalConfig())
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
        """The suite raises on any failure — as a structured
        JobExecutionError carrying the failures."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        with pytest.raises(JobExecutionError) as excinfo:
            run_suite(
                POLICIES, scale=TraceScale.TINY, workloads=["SP", "RD"], jobs=2
            )
        (failure,) = excinfo.value.failures
        assert failure.workload == "SP"

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "variants"])
    def test_error_carries_partial_results(
        self, no_persistent_cache, monkeypatch, sweep
    ):
        """The error carries every completed point in the shape a clean
        run returns: one dict, or one per variant, each without SP."""
        kwargs = {"variants": SWEEP} if sweep else {}

        def run():
            return run_suite(
                POLICIES,
                scale=TraceScale.TINY,
                workloads=["SP", "RD"],
                jobs=1,
                **kwargs,
            )

        clean = run()
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        with pytest.raises(JobExecutionError) as excinfo:
            run()
        error = excinfo.value
        assert [f.workload for f in error.failures] == ["SP"]
        assert isinstance(error.results, list) == sweep
        if sweep:
            assert len(error.results) == len(SWEEP)
            pairs = zip(error.results, clean)
        else:
            pairs = [(error.results, clean)]
        for got, expected in pairs:
            assert got == {"RD": expected["RD"]}


def _clean(monkeypatch, run):
    """``run()`` with the cache off: the reference a re-run must match."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    try:
        return run()
    finally:
        monkeypatch.delenv("REPRO_NO_CACHE")


class TestCacheResume:
    """The result cache is the only completion record: after a partial
    run, a plain re-run dispatches only the failed workload. Runs are
    serial so ``simulator.stats`` counts every simulation."""

    @pytest.fixture(autouse=True)
    def _serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        simulator.stats["runs"] = 0

    def _run(self):
        return run_suite(POLICIES, scale=TraceScale.TINY, workloads=["SP", "RD"])

    def test_cache_records_every_point(self):
        results = self._run()
        for name in ("SP", "RD"):
            for policy in (BASELINE, *POLICIES):
                key = result_key(
                    name, policy, TraceScale.TINY, 0, ndp_config(), baseline_config()
                )
                assert result_cache.load(key) == results[name][policy.label]

    def test_cold_run_stores_each_point_once(self):
        """The job's runner stores every point it simulates; the
        planner does not store them a second time."""
        result_cache.reset_stats()
        self._run()
        assert result_cache.stats["stores"] == 2 * len((BASELINE, *POLICIES))

    def test_rerun_skips_completed_points(self, dispatched):
        first = self._run()
        simulator.stats["runs"] = 0
        dispatched.clear()
        again = self._run()
        assert dispatched == []  # nothing dispatched
        assert simulator.stats["runs"] == 0
        assert again == first

    def test_runner_seeded_cache_answers_the_suite(self, dispatched):
        """Points a plain WorkloadRunner stored are answered by the
        suite without dispatching or simulating anything."""
        runner = WorkloadRunner("SP", scale=TraceScale.TINY)
        seeded = {policy.label: runner.run(policy) for policy in (BASELINE, *POLICIES)}
        simulator.stats["runs"] = 0
        results = run_suite(POLICIES, scale=TraceScale.TINY, workloads=["SP"])
        assert dispatched == []
        assert simulator.stats["runs"] == 0
        assert results == {"SP": seeded}

    def test_rerun_dispatches_only_failed_workload(self, monkeypatch, dispatched):
        clean = _clean(monkeypatch, self._run)
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        broken, failures = _partial(self._run)
        assert [f.workload for f in failures] == ["SP"]
        assert set(broken) == {"RD"}

        monkeypatch.delenv("REPRO_FAULTS")
        simulator.stats["runs"] = 0
        dispatched.clear()
        healed = self._run()  # raises on any failure
        assert [job.workload for job in dispatched] == ["SP"]
        assert simulator.stats["runs"] == 2  # SP's baseline + ctrl+bmap
        assert healed == clean

    def test_no_cache_keeps_no_completion_record(self, monkeypatch, dispatched):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        self._run()
        dispatched.clear()
        self._run()
        assert [job.workload for job in dispatched] == ["SP", "RD"]


#: Two Section 6.5 cross-stack bandwidth ratios: one supervised job per
#: workload carries both.
SWEEP = (ndp_config(cross_stack_ratio=0.25), ndp_config(cross_stack_ratio=1.0))


def _points(job):
    """A job's (configuration, policy) points."""
    return [(point.ndp_configuration, point.policy) for point in job.points]


def _sweep(variants=SWEEP, **kwargs):
    return run_suite(
        (NDP_CTRL_TMAP,),
        scale=TraceScale.TINY,
        workloads=["SP", "RD", "BP"],
        jobs=2,
        variants=variants,
        **kwargs,
    )


class TestVariantSweeps:
    def test_job_fault_fails_the_workload_in_every_variant(
        self, monkeypatch, dispatched
    ):
        """A fault injected at ``job/SP`` fails SP's one job, which
        carries every variant: SP is missing from every variant, the
        other workloads match a clean sweep bit for bit, and a re-run
        dispatches only SP's job."""
        clean = _clean(monkeypatch, _sweep)
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/SP")
        broken, failures = _partial(_sweep)
        assert [f.workload for f in failures] == ["SP"]
        assert len(broken) == len(SWEEP)
        for got, expected in zip(broken, clean):
            assert "SP" not in got
            assert got == {k: v for k, v in expected.items() if k != "SP"}

        monkeypatch.delenv("REPRO_FAULTS")
        dispatched.clear()
        healed = _sweep()  # raises on any failure
        assert [job.workload for job in dispatched] == ["SP"]
        assert healed == clean

    def test_cache_records_each_variant_under_its_key(self, dispatched):
        """Each variant's points are stored under the keys a one-variant
        run of that configuration uses, so such a run reads them back
        without dispatching anything."""
        sweep = _sweep()
        for config, results in zip(SWEEP, sweep):
            dispatched.clear()
            single = run_suite(
                (NDP_CTRL_TMAP,),
                scale=TraceScale.TINY,
                workloads=["SP", "RD", "BP"],
                ndp_configuration=config,
            )
            assert dispatched == [] and single == results

    def test_rerun_with_other_variants_simulates_only_new_ones(self, dispatched):
        _sweep()
        extra = ndp_config(cross_stack_ratio=0.5)
        dispatched.clear()
        _sweep(variants=(SWEEP[0], extra))
        # The baseline is one key for every variant, so it stays cached.
        assert [_points(job) for job in dispatched] == [
            [(extra, NDP_CTRL_TMAP)]
        ] * 3

    def test_equal_variants_run_once(self, no_persistent_cache, dispatched):
        """Equal variants are one set of points: each workload's job
        carries the configuration once, and every position gets its
        results."""
        first, second = _sweep(variants=(SWEEP[0], SWEEP[0]))
        assert [_points(job) for job in dispatched] == [
            [(SWEEP[0], BASELINE), (SWEEP[0], NDP_CTRL_TMAP)]
        ] * 3
        assert first == second and set(first) == {"SP", "RD", "BP"}

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
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        recorder = TraceRecorder()
        points = [
            SuitePoint(name, TraceScale.TINY, 0, ndp_config(), policy)
            for name in ("SP", "RD")
            for policy in (BASELINE, *POLICIES)
        ]
        report = run_points(points, jobs=2, recorder=recorder)
        assert len(report.failures) == 1
        assert [r is None for r in report.results] == [True, True, False, False]
        by_name = {event.workload: event for event in recorder.jobs}
        assert by_name["SP"].status == "failed"
        assert by_name["SP"].error and "InjectedFault" in by_name["SP"].error
        assert by_name["RD"].status == "ok"
        assert by_name["RD"].error is None
        for event in recorder.jobs:
            round_tripped = event_from_dict(event.to_dict())
            assert round_tripped == event


class TestPlannerCounts:
    """Every distinct simulation is one key, probed once, simulated
    once and stored once: the serial TINY counts of the figure drivers.
    Figure 8 is 50 distinct points; §6.5 is 80 points (4 ratios x 10
    workloads x baseline and ctrl+tmap) over 50 keys, because the
    baseline is one key for all four ratios."""

    @pytest.fixture(autouse=True)
    def _serial_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        result_cache.reset_stats()
        simulator.stats["runs"] = 0

    @staticmethod
    def _delta(query):
        """``(simulations, hits, misses, stores)`` that ``query`` made."""
        before = (simulator.stats["runs"], *_cache_counts())
        query()
        after = (simulator.stats["runs"], *_cache_counts())
        return tuple(b - a for a, b in zip(before, after))

    def test_cold_figure8_then_section65(self):
        from repro.analysis import figures

        assert self._delta(lambda: figures.figure8(scale=TraceScale.TINY)) == (
            50, 0, 50, 50,
        )
        # Figure 8 already holds every baseline and the 1.0x ctrl+tmap.
        assert self._delta(lambda: figures.section65(scale=TraceScale.TINY)) == (
            30, 20, 30, 30,
        )

    def test_cold_then_warm_section65(self):
        from repro.analysis import figures

        cold = self._delta(lambda: figures.section65(scale=TraceScale.TINY))
        assert cold == (50, 0, 50, 50)
        warm = self._delta(lambda: figures.section65(scale=TraceScale.TINY))
        assert warm == (0, 50, 0, 0)


def _cache_counts():
    stats = result_cache.stats
    return stats["hits"], stats["misses"], stats["stores"]
