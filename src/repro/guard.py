"""A thread-local "no heavy work" guard for cache-only queries.

A *warm* figure or run query must be answered straight from the
persistent result cache — without building a trace or running a
simulation. The honest way to check that is not to predict warmth but
to *forbid* heavy work while evaluating the query: run it under
:func:`deny_simulation`, and the first code path that would actually
simulate raises :class:`~repro.errors.SimulationDenied` instead. The
end-to-end benchmark (``perfbench/run.py``) runs its warm phase this
way, and ``tests/test_campaign.py`` (``TestGuard``) pins the contract.

Checked at four choke points, outermost first:

* :func:`repro.core.supervisor.run_supervised` — refuses to dispatch a
  non-empty job batch (pool workers would not inherit a thread-local
  flag, so the dispatch itself must be the barrier);
* :func:`repro.trace.generator.build_trace` — trace generation is the
  expensive prefix of every scalar simulation;
* :func:`repro.core.gridrun.run_grid` — the lockstep grid engine;
* :meth:`repro.core.simulator.Simulator.run` — the scalar engine, as
  the final belt-and-braces check.

Every check sits *after* the persistent-cache probe of its caller, so
a fully cached query never reaches one. The flag is **thread-local**
and deliberately does not propagate to worker *processes*; that is why
the supervisor check exists.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .errors import SimulationDenied

_state = threading.local()


def simulation_denied() -> bool:
    """True while the calling thread is inside :func:`deny_simulation`."""
    return getattr(_state, "denied", False)


def check_simulation_allowed(what: str) -> None:
    """Raise :class:`~repro.errors.SimulationDenied` if the calling
    thread has declared this evaluation cache-only."""
    if simulation_denied():
        raise SimulationDenied(
            f"{what} while simulation is denied (cache-only evaluation)"
        )


@contextmanager
def deny_simulation() -> Iterator[None]:
    """Within this context (and thread), any attempt to build a trace,
    dispatch jobs, or run a simulation raises
    :class:`~repro.errors.SimulationDenied`. Reentrant; always restores
    the previous state."""
    previous = getattr(_state, "denied", False)
    _state.denied = True
    try:
        yield
    finally:
        _state.denied = previous
