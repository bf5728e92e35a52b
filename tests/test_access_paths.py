"""Pinned results of the per-access memory paths.

Every warp access walks a fixed chain of link reservations and vault
bookings (GPU off-chip groups, stack-SM home and remote groups, page
walks, the PCI-E learning path, the ideal policy's interleaved
service). The Figure-8 policies are pinned elsewhere; these cases pin
the paths they leave out — page walks over the cross-stack links,
``ideal+bmap``'s ``service_interleaved`` path and the oracle mapping —
as SHA-256 digests over the exported result plus the engine's event
count, so any change to the order or timing of an access's engine
calls shows up here. The digests hold on both engine backends (they
are bit-identical); the test runs under whichever one is active.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json

import pytest

from repro import TraceScale, WorkloadRunner, ndp_config
from repro.analysis.export import result_to_dict
from repro.core.policies import POLICIES_BY_LABEL
from repro.core.simulator import Simulator
from repro.obs import TraceRecorder
from repro.obs.events import AccessEvent


def _translation_config(tlb_entries: int):
    cfg = ndp_config()
    return dataclasses.replace(
        cfg,
        translation=dataclasses.replace(
            cfg.translation, enabled=True, tlb_entries=tlb_entries
        ),
    )


def _run(workload: str, label: str, tlb_entries=None, recorder=None):
    """One fresh TINY simulation; returns (digest, simulator)."""
    config = ndp_config() if tlb_entries is None else _translation_config(tlb_entries)
    trace = WorkloadRunner(workload, scale=TraceScale.TINY).trace
    simulator = Simulator(trace, config, POLICIES_BY_LABEL[label], recorder=recorder)
    result = simulator.run()
    payload = {
        "result": result_to_dict(result),
        "events": simulator.system.engine.events_processed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), simulator


#: (workload, policy label, TLB entries or None) -> digest, captured
#: before the access paths were rewritten as engine callbacks.
PINNED = {
    ("BFS", "ctrl+bmap", 8): (
        "1a389b5d9f9a4a440d7109eb69be7cc2c49940e18b3e6dc820be5a513905a94d"
    ),
    ("BFS", "ctrl+tmap", 8): (
        "6a670008eba0e16ef81ec26a8b0986e69351b177c59350effd1fdc0048ca030d"
    ),
    ("BFS", "ideal+bmap", None): (
        "a8f9c0b6bd295e8884ef0edbeec00da1c5eca56affab37c4593d48e337982e9d"
    ),
    ("CFD", "ctrl+bmap", 8): (
        "ed8364b26de4ea4eba327152b44d62a97ef66161a1c202140796eb0e649d4771"
    ),
    ("CFD", "ctrl+oracle", None): (
        "c17d2314cc9a5281db3bf2fc9757c5e475335f3f3e50a20cf8ed959eba762fcc"
    ),
    ("CFD", "ctrl+tmap", 8): (
        "286efd4e19e150c54881e5fb799c707523503fa00b2b5ffd2a1be917a3e8e556"
    ),
    ("KM", "ctrl+oracle", None): (
        "39b5ecd0b6c58fa7186b81ac684708ea02d3c51e7cc8d70b4768bb5be2796aa3"
    ),
    ("LIB", "ctrl+bmap", 8): (
        "67342e2eeaf6923abbaa5a330bde89dd9fb9704b8ef26265109f7aee30bc5f7f"
    ),
    ("LIB", "ctrl+tmap", 8): (
        "d6cf98f978e4c3b237684c12a26f1e25eb7e78b125e9857cc969f5c361558ec8"
    ),
    ("LIB", "ideal+bmap", None): (
        "f8f4eded6002a97014679c59ee51da4a7b1fe8e4527bdef910daed47193a966c"
    ),
}

#: Traced cases: (workload, policy, TLB entries) -> {(origin, is_store): n}
#: over the recorder's ``access`` events.
PINNED_ACCESS_COUNTS = {
    ("CFD", "ctrl+tmap", 8): {
        ("gpu", False): 360,
        ("gpu", True): 88,
        ("pcie", False): 48,
        ("pcie", True): 16,
        ("stack0", False): 588,
        ("stack0", True): 196,
        ("stack3", False): 879,
        ("stack3", True): 293,
    },
    ("LIB", "ideal+bmap", None): {
        ("gpu", True): 96,
        ("stack0", False): 810,
        ("stack0", True): 810,
        ("stack1", False): 819,
        ("stack1", True): 819,
        ("stack2", False): 824,
        ("stack2", True): 824,
        ("stack3", False): 825,
        ("stack3", True): 825,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED, key=str), ids=str)
def test_result_digest_pinned(case):
    workload, label, tlb_entries = case
    digest, simulator = _run(workload, label, tlb_entries)
    if tlb_entries is not None:
        walks = simulator.system.translations
        assert sum(unit.stats.remote_walks for unit in walks) > 0
        assert sum(unit.stats.local_walks for unit in walks) > 0
    assert digest == PINNED[case]


@pytest.mark.parametrize("case", sorted(PINNED_ACCESS_COUNTS, key=str), ids=str)
def test_traced_run_matches_untraced(case):
    workload, label, tlb_entries = case
    untraced, _ = _run(workload, label, tlb_entries)
    recorder = TraceRecorder()
    traced, _ = _run(workload, label, tlb_entries, recorder=recorder)
    assert traced == untraced == PINNED[case]
    assert recorder.dropped["access"] == 0
    counts = collections.Counter(
        (event.origin, event.is_store)
        for event in recorder.events()
        if isinstance(event, AccessEvent)
    )
    assert dict(counts) == PINNED_ACCESS_COUNTS[case]
