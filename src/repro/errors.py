"""Exception hierarchy for the TOM reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigError(ReproError):
    """A system configuration is inconsistent or out of range."""


class IsaError(ReproError):
    """An instruction or kernel is malformed."""


class AssemblyError(IsaError):
    """The mini-assembly text could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CompilerError(ReproError):
    """Static analysis failed (malformed CFG, unresolved label, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class SimulationDenied(ReproError):
    """Heavy work (trace build, job dispatch, simulation) was attempted
    inside a :func:`repro.guard.deny_simulation` cache-only context —
    the query the caller is evaluating is *cold*, not warm."""


class JobExecutionError(SimulationError):
    """One or more supervised suite jobs failed permanently.

    Raised by the strict entry point
    (:func:`repro.core.experiment.run_suite`); carries the structured
    per-job failures so callers can still see *which* points died. The
    partial-result entry point (``run_suite_supervised``) returns these
    in its report instead of raising.
    """

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        summary = "; ".join(f.describe() for f in self.failures)
        super().__init__(f"{len(self.failures)} job(s) failed: {summary}")


class AllocationError(ReproError):
    """A memory allocation request could not be satisfied."""


class TraceError(ReproError):
    """A workload trace is malformed or inconsistent with its kernel."""


class AnalysisError(ReproError):
    """Post-processing / analysis was asked for data that does not exist."""
