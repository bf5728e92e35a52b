"""Shared fixtures: configurations, a miniature workload, cached traces."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_cache(monkeypatch, tmp_path):
    """Point the persistent result cache at a per-test directory so
    tests exercise the cache code without sharing state with the user's
    real cache (or with each other — several tests monkeypatch simulator
    internals, and their results must never leak across tests)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))

from repro import (
    NDP_CTRL_BMAP,
    TraceScale,
    WorkloadRunner,
    baseline_config,
    build_trace,
    ndp_config,
)
from repro.isa import KernelBuilder
from repro.trace.generator import TraceModel
from repro.trace.patterns import LinearPattern, RandomPattern


class MiniWorkload(TraceModel):
    """A two-array streaming kernel small enough for fast tests: one
    runtime-bound candidate loop (2 loads, 1 store) plus a short plain
    epilogue."""

    name = "MINI"
    default_iterations = 6
    max_iterations = 8

    def build_kernel(self):
        b = KernelBuilder("mini", params=["%ap", "%bp", "%cp", "%n"])
        b.mov("%i", 0)
        b.label("loop")
        b.ld_global("%x", addr=["%ap", "%i"], array="a")
        b.ld_global("%y", addr=["%bp", "%i"], array="b")
        b.add("%s", "%x", "%y")
        b.st_global(addr=["%cp", "%i"], value="%s", array="c")
        b.add("%i", "%i", 1)
        b.setp("%p", "%i", "%n")
        b.bra("loop", pred="%p")
        b.mul("%t", "%s", 2.0)
        b.st_global(addr=["%cp"], value="%t", array="c")
        b.exit()
        return b.build()

    def array_specs(self):
        mb = 1 << 20
        return [("a", 4 * mb), ("b", 4 * mb), ("c", 4 * mb)]

    def pattern_for(self, array, access_id):
        span = self.max_iterations * 32
        return LinearPattern(array, span_elements=span)

    def iterations_for(self, block_id, warp_id, rng):
        return int(rng.integers(4, 9))


class IrregularMiniWorkload(MiniWorkload):
    """MINI with random gathers — exercises the irregular paths."""

    name = "MINI-RND"

    def pattern_for(self, array, access_id):
        return RandomPattern(array)


@pytest.fixture(scope="session")
def ndp_cfg():
    return ndp_config()

@pytest.fixture(scope="session")
def base_cfg():
    return baseline_config()


@pytest.fixture(scope="session")
def sp_bmap_result(tmp_path_factory):
    """SP at TINY under ctrl+bmap, simulated once per session. Session
    scope runs before the per-test cache isolation above, so the run
    gets a private result cache of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("result-cache")))
        return WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)


@pytest.fixture(scope="session")
def mini_trace(ndp_cfg):
    return build_trace(MiniWorkload(), ndp_cfg, TraceScale.TINY, seed=7)


@pytest.fixture(scope="session")
def irregular_trace(ndp_cfg):
    return build_trace(IrregularMiniWorkload(), ndp_cfg, TraceScale.TINY, seed=7)


@pytest.fixture(scope="session")
def lib_trace(ndp_cfg):
    from repro import make_workload

    return build_trace(make_workload("LIB"), ndp_cfg, TraceScale.TINY, seed=0)
