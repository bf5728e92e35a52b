"""Tests for trace serialization."""

import numpy as np
import pytest

from repro import TraceScale, build_trace, ndp_config
from repro.errors import TraceError
from repro.trace.serialize import load_trace, save_trace, trace_checksum
from repro.utils.bitops import ilog2
from tests.conftest import MiniWorkload


class TestRoundTrip:
    def test_save_load_identical(self, mini_trace, tmp_path):
        path = str(tmp_path / "mini.npz")
        save_trace(mini_trace, path)
        loaded = load_trace(path, mini_trace)
        assert loaded.total_instructions == mini_trace.total_instructions
        assert loaded.n_warps == mini_trace.n_warps
        assert trace_checksum(loaded) == trace_checksum(mini_trace)
        for t1, t2 in zip(loaded.tasks, mini_trace.tasks):
            assert t1.warp_id == t2.warp_id
            for s1, s2 in zip(t1.segments, t2.segments):
                assert type(s1) is type(s2)
                assert s1.n_instructions == s2.n_instructions
                for a1, a2 in zip(s1.accesses, s2.accesses):
                    assert a1.line_addresses == a2.line_addresses
                    assert a1.is_store == a2.is_store

    def test_loaded_trace_equals_built(self, lib_trace, tmp_path):
        path = str(tmp_path / "lib.npz")
        save_trace(lib_trace, path)
        loaded = load_trace(path, lib_trace)
        assert loaded.tasks == lib_trace.tasks
        assert loaded.line_bytes == lib_trace.line_bytes
        line_bits = ilog2(lib_trace.line_bytes)
        for a1, a2 in zip(_accesses(loaded), _accesses(lib_trace)):
            assert a1.active_lanes == a2.active_lanes
            assert a1.line_ids(line_bits) == a2.line_ids(line_bits)

    def test_loaded_trace_shares_int_objects(self, lib_trace, tmp_path):
        path = str(tmp_path / "lib.npz")
        save_trace(lib_trace, path)
        loaded = load_trace(path, lib_trace)
        line_bits = ilog2(lib_trace.line_bytes)
        addresses = {}
        ids = {}
        for access in _accesses(loaded):
            for address, line_id in zip(
                access.line_addresses, access.line_ids(line_bits)
            ):
                assert addresses.setdefault(address, address) is address
                assert ids.setdefault(line_id, line_id) is line_id
        assert sum(a.n_lines for a in _accesses(loaded)) > len(addresses)

    def test_loaded_trace_simulates_identically(self, lib_trace, tmp_path):
        from repro.analysis.export import result_to_dict
        from repro.core.policies import POLICIES_BY_LABEL
        from repro.core.simulator import Simulator

        path = str(tmp_path / "lib.npz")
        save_trace(lib_trace, path)
        loaded = load_trace(path, lib_trace)
        for label in ("baseline", "ctrl+tmap"):
            runs = [
                Simulator(trace, ndp_config(), POLICIES_BY_LABEL[label])
                for trace in (lib_trace, loaded)
            ]
            first, second = (result_to_dict(sim.run()) for sim in runs)
            assert first == second
            assert (
                runs[0].system.engine.events_processed
                == runs[1].system.engine.events_processed
            )


def _accesses(trace):
    for task in trace.tasks:
        for segment in task.segments:
            yield from segment.accesses


class TestValidation:
    def test_misaligned_archive_rejected(self, mini_trace, tmp_path):
        path = str(tmp_path / "mini.npz")
        save_trace(mini_trace, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["lines"] = arrays["lines"] + 4
        np.savez_compressed(path, **arrays)
        with pytest.raises(TraceError, match="aligned"):
            load_trace(path, mini_trace)

    def test_wrong_workload_rejected(self, mini_trace, irregular_trace, tmp_path):
        path = str(tmp_path / "mini.npz")
        save_trace(mini_trace, path)
        with pytest.raises(TraceError):
            load_trace(path, irregular_trace)

    def test_wrong_seed_reference_rejected(self, mini_trace, tmp_path):
        other = build_trace(MiniWorkload(), ndp_config(), TraceScale.TINY, seed=99)
        path = str(tmp_path / "mini.npz")
        save_trace(mini_trace, path)
        # same kernel + allocations -> loads fine, and the archive's
        # dynamic content replaces the reference's
        loaded = load_trace(path, other)
        assert trace_checksum(loaded) == trace_checksum(mini_trace)

    def test_checksum_is_sensitive(self, mini_trace, irregular_trace):
        assert trace_checksum(mini_trace) != trace_checksum(irregular_trace)
