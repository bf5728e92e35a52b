"""Generational-GC pause guard for allocation-heavy hot loops.

The event loop allocates container objects (heap entries, callback
objects, events) fast enough to trigger CPython's collector throughout
a run, and every full (generation-2) collection walks the whole live
heap — dominated by the trace, whose slotted accesses are GC-tracked
(LIB at MEDIUM: 81k of the ~109k tracked objects). None of it is
garbage: the trace and the system objects stay live for the whole
run, and finished access chains are freed by reference counting. On
LIB at MEDIUM, baseline + ctrl+tmap on the Python engine, the
collector ran 805 young and 7 full collections and spent 0.54 s of a
2.8 s simulate (0.31 s in the full ones), and 0.05 s of a 1.0 s trace
build (timed with ``gc.callbacks`` with the guard a no-op). So
the hot entry points (:func:`repro.trace.generator.build_trace`,
:meth:`repro.core.simulator.Simulator.run`) suspend automatic
collection for their duration and restore it afterwards; any cyclic
remainder is picked up by the next ambient collection after the guard
exits.

The guard is reentrant (an inner guard under an already-disabled
collector is a no-op) and exception-safe, and it never force-collects:
deciding *when* to pay for a full collection is left to the caller's
ambient GC configuration.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend automatic garbage collection for the enclosed block.

    No-op when the collector is already disabled (so nesting, or a
    caller that manages GC itself, behaves as expected).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
