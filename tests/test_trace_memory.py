"""Structural guard for the trace's memory layout.

A trace's footprint is set by a few structural facts, not by any one
number: accesses are slotted (no per-instance ``__dict__``), the
coalescer interns line addresses and line ids (each distinct line is
one int object per role, shared by every access that touches it), and
the ids it carries are the ones the simulator uses, so a run never
recomputes them. Each test below pins one of these facts; none asserts
an RSS figure, which would depend on the host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import NDP_CTRL_TMAP, TraceScale, build_trace, make_workload, ndp_config
from repro.core.simulator import Simulator
from repro.gpu import warp
from repro.mapping.transparent import candidate_instances, learn_offline
from repro.utils.bitops import ilog2


@pytest.fixture(scope="module", params=["LIB", "BFS"])
def trace(request):
    return build_trace(make_workload(request.param), ndp_config(), TraceScale.TINY)


def _accesses(trace):
    for task in trace.tasks:
        for segment in task.segments:
            yield from segment.accesses


def _objects_per_value(values):
    """value -> set of ids of the int objects that carry it."""
    carriers = {}
    for value in values:
        carriers.setdefault(value, set()).add(id(value))
    return carriers


def test_warp_access_has_no_instance_dict(trace):
    access = next(_accesses(trace))
    assert not hasattr(access, "__dict__")


def test_equal_line_addresses_share_one_object(trace):
    carriers = _objects_per_value(
        address for access in _accesses(trace) for address in access.line_addresses
    )
    assert all(len(ids) == 1 for ids in carriers.values())
    # The trace revisits lines, so sharing is what makes this hold.
    assert sum(access.n_lines for access in _accesses(trace)) > len(carriers)


def test_equal_line_ids_share_one_object(trace):
    line_bits = ilog2(ndp_config().messages.cache_line_bytes)
    carriers = _objects_per_value(
        line_id for access in _accesses(trace) for line_id in access.line_ids(line_bits)
    )
    assert all(len(ids) == 1 for ids in carriers.values())


def test_simulate_never_recomputes_line_ids(trace, monkeypatch):
    calls = []
    shifted = warp._shifted

    def counting(addresses, line_bits):
        calls.append(line_bits)
        return shifted(addresses, line_bits)

    monkeypatch.setattr(warp, "_shifted", counting)
    result = Simulator(trace, ndp_config(), NDP_CTRL_TMAP).run()
    assert result.cycles > 0
    assert calls == []
    # The counter is live: an access built without ids computes them.
    assert warp.WarpAccess(0, False, (256,)).line_ids(7) == (2,)
    assert calls == [7]


def test_segments_keep_one_copy_of_their_line_addresses(trace):
    """A full-trace learning pass leaves each candidate segment its
    int64 address array and nothing else: no tuple copy of the
    addresses its accesses already hold."""
    learn_offline(ndp_config(), trace.tasks, 1.0)
    segments = candidate_instances(trace.tasks)
    assert segments
    for segment in segments:
        assert not hasattr(segment, "_all_lines_cache")
        flat = [a for access in segment.accesses for a in access.line_addresses]
        array = segment.line_address_array()
        assert array.dtype == np.int64 and not array.flags.writeable
        assert array.tolist() == flat
        assert segment.all_line_addresses() == flat
