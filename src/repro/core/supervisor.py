"""Suite jobs and their supervised execution.

Every paper figure fans out over the workload suite as independent,
deterministic simulations. A :class:`SuiteJob` is one trace — its
identity ``(workload, scale, seed, trace configuration)`` — plus the
exact, distinct (configuration, policy) points still to be simulated
on it, each with its result-cache key: :func:`execute_job` builds the
trace once, runs exactly those points through the grid driver
(:func:`repro.core.gridrun.run_grid`), stores each result once under
its key and returns the results in point order. Pool workers and the
inline path share that one code path and are bit-identical by
construction; :meth:`repro.core.experiment.WorkloadRunner.run_grid`
runs its own grids through it too.
Job payloads and results are plain frozen dataclasses, so pickling is
cheap; traces are never shipped between processes — each worker
rebuilds its own from the job's trace identity.

:func:`run_supervised` dispatches jobs across a
:class:`concurrent.futures.ProcessPoolExecutor` (worker count from
``REPRO_JOBS``, default ``os.cpu_count()``; ``REPRO_JOBS=1`` runs
inline) and treats individual job failure as data:

* **per-job submit** with a configurable wall-clock timeout
  (``REPRO_JOB_TIMEOUT`` / ``SupervisorConfig.timeout``);
* **retry with capped exponential backoff** for transient failures
  (``REPRO_MAX_RETRIES`` / ``SupervisorConfig.max_retries``, default 1
  retry);
* **pool-break recovery** — a worker death (crash, OOM kill) breaks a
  ``ProcessPoolExecutor`` and poisons *every* in-flight future, so the
  supervisor rebuilds the pool and replays the in-flight suspects one
  at a time in isolation: a crash during a solo replay is unambiguously
  that job's own, innocent neighbours are re-enqueued uncharged;
* **per-job pickling isolation** — a pickling-hostile job (a
  monkeypatched config, an ad-hoc workload object) runs inline in the
  parent while the rest still use the pool;
* **structured outcomes** — every job ends as a :class:`JobOutcome`
  carrying either its results or a machine-readable
  :class:`JobFailure`; the suite completes with partial results instead
  of dying, and callers decide whether partial is acceptable.

Timeouts are enforced by rebuilding the pool (the only way to reclaim
a hung ``ProcessPoolExecutor`` worker); the timed-out job is charged an
attempt and, if retried, re-runs in isolation so a repeat hang cannot
take healthy jobs down with it. The inline path (serial fallback,
pickling-hostile jobs) offers no crash/hang containment — a fault
there propagates as an ordinary exception and is retried the same way.
Because a timeout cannot be enforced in-process, configuring one
always buys a pool, even a one-worker one: serial runs stay inline
(and pdb-able) only while no timeout is set.

Fault injection for all of these paths is provided by
:mod:`repro.testing.faults` (``REPRO_FAULTS``): the worker entry point
checks the ``job/<WORKLOAD>`` site before executing, identically in
pool workers and inline.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig, env_text
from ..errors import ConfigError
from ..guard import check_simulation_allowed
from ..trace.generator import TraceScale
from .gridrun import GridRequest
from .policies import RunPolicy
from .results import SimulationResult

#: Default retry/backoff knobs (overridable per call or via env).
DEFAULT_MAX_RETRIES = 1
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_CAP = 2.0


@dataclass(frozen=True)
class SuiteJob:
    """One trace and the exact points to simulate on it: the trace is
    built once, from ``trace_config``, in the worker. Every point's
    ``ndp_configuration`` builds that same trace; ``keys`` holds each
    point's result-cache key, or nothing when the results are not to
    be stored."""

    workload: str
    scale: TraceScale
    seed: int
    trace_config: SystemConfig
    points: Tuple[GridRequest, ...]
    keys: Tuple[str, ...] = ()

    @property
    def policies(self) -> Tuple[RunPolicy, ...]:
        """The job's distinct policies, in point order."""
        return tuple(dict.fromkeys(point.policy for point in self.points))


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else ``os.cpu_count()``."""
    raw = env_text("REPRO_JOBS").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer (1 or more), got {raw!r}"
            ) from None
    return os.cpu_count() or 1


def execute_job(job: SuiteJob) -> Tuple[SimulationResult, ...]:
    """Run one job (in a worker or inline): build its trace once,
    simulate exactly its points through the grid driver, and store each
    result under its key. Results land in the persistent cache from
    inside the worker, so even a crashed parent keeps completed work.
    The worker does not probe the cache: the planner already did."""
    from .experiment import WorkloadRunner  # deferred: experiment imports us

    runner = WorkloadRunner(
        job.workload,
        scale=job.scale,
        seed=job.seed,
        ndp_configuration=job.trace_config,
    )
    return runner.run_job(job)


def _worker_entry(job: SuiteJob) -> Tuple[SimulationResult, ...]:
    """Top-level (picklable) worker function shared by the pool and the
    inline path. The fault-injection hook fires here so injected
    failures behave identically in both."""
    from ..testing import faults

    if faults.active():
        faults.maybe_fault(f"job/{job.workload}")
    return execute_job(job)


@dataclass(frozen=True)
class SupervisorConfig:
    """Timeout/retry policy for one supervised run."""

    timeout: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backoff_cap: float = DEFAULT_BACKOFF_CAP

    @classmethod
    def from_env(
        cls,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> "SupervisorConfig":
        """Explicit arguments win; unset ones fall back to
        ``REPRO_JOB_TIMEOUT`` (float seconds) and ``REPRO_MAX_RETRIES``."""
        if timeout is None:
            raw = env_text("REPRO_JOB_TIMEOUT").strip()
            if raw:
                try:
                    timeout = float(raw)
                except ValueError:
                    raise ConfigError(
                        f"REPRO_JOB_TIMEOUT must be a number, got {raw!r}"
                    ) from None
        if max_retries is None:
            raw = env_text("REPRO_MAX_RETRIES").strip()
            if raw:
                try:
                    max_retries = int(raw)
                except ValueError:
                    raise ConfigError(
                        f"REPRO_MAX_RETRIES must be an integer, got {raw!r}"
                    ) from None
            else:
                max_retries = DEFAULT_MAX_RETRIES
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"job timeout must be positive, got {timeout}")
        if max_retries < 0:
            raise ConfigError(f"max retries must be >= 0, got {max_retries}")
        return cls(timeout=timeout, max_retries=max_retries)


@dataclass(frozen=True)
class JobFailure:
    """Machine-readable record of one permanently failed job."""

    workload: str
    policies: Tuple[str, ...]
    scale: str
    seed: int
    #: ``"error"`` (worker exception), ``"timeout"`` (exceeded the job
    #: timeout), or ``"crash"`` (worker process died mid-job).
    kind: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.workload}[{','.join(self.policies)}] {self.kind} "
            f"after {self.attempts} attempt(s): {self.message}"
        )


@dataclass(frozen=True)
class JobOutcome:
    """Terminal state of one supervised job: results or failure."""

    job: SuiteJob
    results: Optional[Tuple[SimulationResult, ...]] = None
    failure: Optional[JobFailure] = None
    attempts: int = 1
    elapsed: float = 0.0
    ran_inline: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


class _JobState:
    """Mutable supervision state for one job."""

    __slots__ = (
        "index",
        "job",
        "attempts",
        "eligible_at",
        "solo",
        "started",
        "deadline",
    )

    def __init__(self, index: int, job: SuiteJob) -> None:
        self.index = index
        self.job = job
        self.attempts = 0  # failed attempts so far
        self.eligible_at = 0.0  # backoff gate (monotonic time)
        self.solo = False  # replay in isolation (crash/hang suspect)
        self.started: Optional[float] = None
        self.deadline: Optional[float] = None


class _PoolUnavailable(Exception):
    """Process pools cannot be created on this platform."""


def _failure(state: _JobState, kind: str, message: str) -> JobFailure:
    job = state.job
    return JobFailure(
        workload=job.workload,
        policies=tuple(policy.label for policy in job.policies),
        scale=job.scale.name,
        seed=job.seed,
        kind=kind,
        message=message,
        attempts=state.attempts,
    )


def _backoff(cfg: SupervisorConfig, failed_attempts: int) -> float:
    return min(cfg.backoff_cap, cfg.backoff_base * (2 ** (failed_attempts - 1)))


def _new_pool(workers: int) -> ProcessPoolExecutor:
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (OSError, ImportError) as error:
        raise _PoolUnavailable(str(error)) from None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when workers are hung or dead: cancel
    queued work, terminate the processes, reap them briefly."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    for process in list(processes.values()):
        try:
            process.join(1.0)
        except Exception:
            pass
    # Give the executor's management thread a moment to finish its own
    # teardown (it closes the wakeup pipe under the shutdown lock);
    # leaving it mid-close races with the interpreter-exit hook and
    # prints a spurious "Bad file descriptor" traceback.
    thread = getattr(pool, "_executor_manager_thread", None)
    if thread is not None and thread.is_alive():
        thread.join(2.0)


def _pop_eligible(queue: Deque[_JobState], now: float) -> Optional[_JobState]:
    for i, state in enumerate(queue):
        if state.eligible_at <= now:
            del queue[i]
            return state
    return None


def _run_inline(state: _JobState, cfg: SupervisorConfig) -> JobOutcome:
    """Serial fallback: run one job in the parent with the same
    retry/backoff policy (but no crash/hang containment)."""
    start = time.monotonic()
    while True:
        try:
            results = _worker_entry(state.job)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            state.attempts += 1
            message = f"{type(exc).__name__}: {exc}"
            if state.attempts > cfg.max_retries:
                return JobOutcome(
                    job=state.job,
                    failure=_failure(state, "error", message),
                    attempts=state.attempts,
                    elapsed=time.monotonic() - start,
                    ran_inline=True,
                )
            time.sleep(_backoff(cfg, state.attempts))
        else:
            return JobOutcome(
                job=state.job,
                results=results,
                attempts=state.attempts + 1,
                elapsed=time.monotonic() - start,
                ran_inline=True,
            )


def run_supervised(
    jobs: Sequence[SuiteJob],
    n_jobs: Optional[int] = None,
    config: Optional[SupervisorConfig] = None,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
) -> List[JobOutcome]:
    """Execute every job under supervision; returns one
    :class:`JobOutcome` per job, in submission order.

    ``on_outcome`` is invoked with each outcome as it lands (completed
    *or* failed) — the streaming hook for job-lifecycle events; outcomes
    arrive in completion order there, but the returned list is
    submission-ordered.
    """
    jobs = list(jobs)
    # Cache-only evaluation (repro/guard.py): pool workers would not
    # inherit the caller's thread-local guard, so the dispatch itself
    # is the barrier — a non-empty batch under the guard is a cold
    # query, surfaced before any process is forked.
    if jobs:
        check_simulation_allowed(f"dispatch of {len(jobs)} job(s)")
    cfg = config if config is not None else SupervisorConfig.from_env()
    workers = n_jobs if n_jobs is not None else default_jobs()
    workers = min(workers, len(jobs))
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

    def finish(state: _JobState, outcome: JobOutcome) -> None:
        outcomes[state.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    states = [_JobState(i, job) for i, job in enumerate(jobs)]
    # Serial runs (one worker, or a single job) execute inline — unless
    # a timeout is configured: enforcing a timeout requires process
    # isolation, so a timeout always buys a pool, even a one-worker one.
    if workers <= 1 and cfg.timeout is None:
        for state in states:
            finish(state, _run_inline(state, cfg))
        return [outcome for outcome in outcomes if outcome is not None]
    workers = max(workers, 1)

    # Per-job pickling check: only the hostile jobs run inline; the
    # rest still get the pool (previously one hostile job demoted the
    # entire batch to serial).
    pool_states: List[_JobState] = []
    inline_states: List[_JobState] = []
    for state in states:
        try:
            pickle.dumps(state.job)
        except Exception:
            inline_states.append(state)
        else:
            pool_states.append(state)

    if pool_states:
        try:
            _run_pool(pool_states, min(workers, len(pool_states)), cfg, finish)
        except _PoolUnavailable:
            # Restricted platforms: everything degrades to inline.
            for state in pool_states:
                if outcomes[state.index] is None:
                    finish(state, _run_inline(state, cfg))
    for state in inline_states:
        finish(state, _run_inline(state, cfg))
    return [outcome for outcome in outcomes if outcome is not None]


def _run_pool(
    states: List[_JobState],
    workers: int,
    cfg: SupervisorConfig,
    finish: Callable[[_JobState, JobOutcome], None],
) -> None:
    pending: Deque[_JobState] = deque(states)
    solo: Deque[_JobState] = deque()
    in_flight: Dict[Future, _JobState] = {}
    pool = _new_pool(workers)

    def submit(state: _JobState) -> bool:
        """False when the pool is already broken (caller rebuilds)."""
        try:
            future = pool.submit(_worker_entry, state.job)
        except (BrokenProcessPool, RuntimeError):
            return False
        now = time.monotonic()
        if state.started is None:
            state.started = now
        state.deadline = (now + cfg.timeout) if cfg.timeout else None
        in_flight[future] = state
        return True

    def charge(
        state: _JobState, kind: str, message: str, queue: Deque[_JobState], now: float
    ) -> None:
        """Record one failed attempt: retry with backoff or finalize."""
        state.attempts += 1
        if state.attempts > cfg.max_retries:
            finish(
                state,
                JobOutcome(
                    job=state.job,
                    failure=_failure(state, kind, message),
                    attempts=state.attempts,
                    elapsed=now - (state.started or now),
                ),
            )
        else:
            state.eligible_at = now + _backoff(cfg, state.attempts)
            queue.append(state)

    try:
        while pending or solo or in_flight:
            now = time.monotonic()
            broken = False

            # -- submit ------------------------------------------------
            # Solo states (crash/hang suspects) run strictly alone so
            # the next failure is unambiguously theirs.
            if solo or any(state.solo for state in in_flight.values()):
                if not in_flight and solo:
                    state = _pop_eligible(solo, now)
                    if state is not None and not submit(state):
                        solo.appendleft(state)
                        broken = True
            else:
                while pending and len(in_flight) < workers:
                    state = _pop_eligible(pending, now)
                    if state is None:
                        break
                    if not submit(state):
                        pending.appendleft(state)
                        broken = True
                        break

            # -- wait / collect ---------------------------------------
            if in_flight and not broken:
                deadlines = [
                    s.deadline for s in in_flight.values() if s.deadline is not None
                ]
                timeout = max(0.0, min(deadlines) - now) if deadlines else None
                done, _ = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in done:
                    state = in_flight.pop(future)
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        broken = True
                        if state.solo:
                            # Ran alone: the worker death is its own.
                            charge(
                                state,
                                "crash",
                                "worker process died mid-job",
                                solo,
                                now,
                            )
                        else:
                            # A worker died but every in-flight future is
                            # poisoned alike; replay suspects in
                            # isolation, uncharged.
                            state.solo = True
                            solo.append(state)
                    except Exception as exc:  # noqa: BLE001
                        charge(
                            state,
                            "error",
                            f"{type(exc).__name__}: {exc}",
                            solo if state.solo else pending,
                            now,
                        )
                    else:
                        finish(
                            state,
                            JobOutcome(
                                job=state.job,
                                results=results,
                                attempts=state.attempts + 1,
                                elapsed=now - (state.started or now),
                            ),
                        )
                # Anything past its deadline hung; rebuilding the pool
                # is the only way to reclaim its worker.
                for future, state in list(in_flight.items()):
                    if state.deadline is not None and now >= state.deadline:
                        del in_flight[future]
                        future.cancel()
                        state.solo = True
                        charge(
                            state,
                            "timeout",
                            f"exceeded {cfg.timeout:g}s job timeout",
                            solo,
                            now,
                        )
                        broken = True
            elif not in_flight and not broken:
                # Everything is waiting out a retry backoff.
                gates = [s.eligible_at for s in (*pending, *solo)]
                if gates:
                    time.sleep(max(0.0, min(gates) - now) + 0.001)

            # -- rebuild ----------------------------------------------
            if broken:
                # Innocent in-flight jobs die with the pool: re-enqueue
                # them uncharged, ahead of anything else.
                for state in in_flight.values():
                    (solo if state.solo else pending).appendleft(state)
                in_flight.clear()
                _kill_pool(pool)
                pool = _new_pool(workers)
    finally:
        _kill_pool(pool)
