"""Tests for the persistent result cache (repro.core.result_cache).

Every test runs against a per-test ``REPRO_CACHE_DIR`` (the autouse
fixture in conftest.py), so nothing touches the user's real cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import TraceScale, WorkloadRunner, baseline_config, make_workload, ndp_config
from repro.analysis import figures
from repro.analysis.export import result_from_dict, result_to_dict
from repro.analysis.figures import run_figure8_suite
from repro.config import SystemConfig
from repro.core import result_cache
from repro.core.policies import NDP_CTRL_BMAP
from repro.core.results import OffloadSummary, SimulationResult
from repro.energy.model import EnergyBreakdown
from repro.interconnect.links import TrafficBreakdown
from repro.core.simulator import Simulator
from repro.trace.generator import build_trace, trace_fingerprint
from repro.workloads.suite import SUITE_ORDER


_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _fresh_stats():
    result_cache.reset_stats()


def _key(
    policy=NDP_CTRL_BMAP, seed=0, scale=TraceScale.TINY, config=None, run_config=None
):
    config = config or ndp_config()
    return result_cache.cache_key(
        workload="SP",
        policy_label=policy.label,
        scale=scale,
        seed=seed,
        trace_config=config,
        run_config=run_config or config,
    )


def _read_entry(path):
    """A v4 entry as (header dict, decoded result)."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), SimulationResult.from_row(json.loads(body))


def _write_entry(path, header, stored):
    path.write_bytes(
        json.dumps(header).encode()
        + b"\n"
        + json.dumps(stored.to_row(), separators=(",", ":")).encode()
    )


def _leaf_paths(config, prefix=()):
    """(section, ..., field) name paths of every non-dataclass field."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, prefix + (field.name,))
        else:
            yield prefix + (field.name,)


def _with_leaf(config, path, value):
    """``config`` with the leaf at ``path`` replaced (unvalidated)."""
    if len(path) == 1:
        return dataclasses.replace(config, **{path[0]: value})
    section = _with_leaf(getattr(config, path[0]), path[1:], value)
    return dataclasses.replace(config, **{path[0]: section})


def _leaf(config, path):
    for name in path:
        config = getattr(config, name)
    return config


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * 2 + 0.5


#: The configuration that ``build_trace`` reads, as leaf-path prefixes:
#: what ``trace_fingerprint`` covers.
_TRACE_FIELDS = (("compiler",), ("messages",), ("gpu", "warp_size"), ("mapping", "page_bytes"))


def _builds_the_trace(path):
    return any(path[: len(prefix)] == prefix for prefix in _TRACE_FIELDS)


class _ReadRecorder:
    """Stands in for a configuration (or one of its sections) and
    records the path of every leaf read through it."""

    def __init__(self, target, reads, path=()):
        self._target = target
        self._reads = reads
        self._path = path

    def __getattr__(self, name):
        value = getattr(self._target, name)
        path = self._path + (name,)
        if dataclasses.is_dataclass(value):
            return _ReadRecorder(value, self._reads, path)
        self._reads.add(path)
        return value


class TestCacheKey:
    def test_stable_across_calls(self):
        assert _key() == _key()

    def test_seed_scale_policy_sensitivity(self):
        baseline = _key()
        assert _key(seed=1) != baseline
        assert _key(scale=TraceScale.SMALL) != baseline

    def test_config_change_invalidates(self):
        assert _key(config=ndp_config(warp_capacity_multiplier=2)) != _key()

    def test_code_version_in_key(self, monkeypatch):
        baseline = _key()
        monkeypatch.setattr(result_cache, "code_version", lambda: "different")
        assert _key() != baseline

    def test_equal_configs_built_separately_share_a_key(self):
        first = ndp_config()
        second = dataclasses.replace(first)
        assert first is not second
        assert _key(config=first) == _key(config=second)
        assert _key(config=first, run_config=baseline_config()) == _key(
            config=second, run_config=baseline_config()
        )

    def test_every_leaf_field_is_in_the_key(self):
        """Changing any one leaf of the run configuration, or any leaf
        of the trace configuration that the trace is built from,
        changes the key."""
        base = ndp_config()
        reference = _key(config=base)
        paths = list(_leaf_paths(base))
        assert len(paths) > 50
        for path in paths:
            changed = _with_leaf(base, path, _changed(_leaf(base, path)))
            if _builds_the_trace(path):
                assert _key(config=changed, run_config=base) != reference, path
            assert _key(config=base, run_config=changed) != reference, path

    def test_leaf_outside_the_trace_identity_keeps_the_key(self):
        """A baseline point runs on the baseline configuration over the
        trace its NDP configuration builds, so an NDP leaf no trace
        reads (a bandwidth, a threshold) leaves its key unchanged."""
        base = ndp_config()
        reference = _key(config=base, run_config=baseline_config())
        outside = [p for p in _leaf_paths(base) if not _builds_the_trace(p)]
        assert len(outside) > 30
        for path in outside:
            changed = _with_leaf(base, path, _changed(_leaf(base, path)))
            key = _key(config=changed, run_config=baseline_config())
            assert key == reference, path

    def test_build_trace_reads_only_fingerprinted_fields(self):
        """The key holds only the trace identity of its trace config, so
        ``build_trace`` must read nothing else: every config leaf it
        reads, for every suite workload, is one the fingerprint covers."""
        reads = set()
        config = ndp_config()
        for workload in SUITE_ORDER:
            proxied = build_trace(
                make_workload(workload), _ReadRecorder(config, reads), TraceScale.TINY
            )
        # The proxy stands in faithfully: the last trace is the real one.
        assert proxied.tasks == build_trace(
            make_workload(workload), config, TraceScale.TINY
        ).tasks
        assert reads and all(_builds_the_trace(path) for path in reads), reads
        # ... and the fingerprint covers every one of those fields.
        for path in filter(_builds_the_trace, _leaf_paths(config)):
            changed = _with_leaf(config, path, _changed(_leaf(config, path)))
            assert trace_fingerprint(changed) != trace_fingerprint(config), path

    def test_int_swapped_for_equal_float_changes_the_key(self):
        """The per-instance digest is not a by-value memo: ``1 == 1.0``
        but the two serialize differently, so their keys differ."""
        base = ndp_config()
        reference = _key(config=base)
        int_paths = [p for p in _leaf_paths(base) if type(_leaf(base, p)) is int]
        assert any(_builds_the_trace(p) for p in int_paths)
        for path in int_paths:
            as_float = _with_leaf(base, path, float(_leaf(base, path)))
            assert as_float == base
            if _builds_the_trace(path):
                assert _key(config=as_float, run_config=base) != reference, path
            assert _key(config=base, run_config=as_float) != reference, path

    def test_equal_inputs_of_different_types_key_apart(self):
        """``1 == True`` and ``None``/``0`` are both falsy, but each pair
        names different inputs."""
        assert _key(seed=1) != _key(seed=True)
        config = ndp_config()
        keys = {
            result_cache.cache_key(
                "SP", "ctrl+oracle", TraceScale.TINY, 0, config, config, position
            )
            for position in (None, 0)
        }
        assert len(keys) == 2

    @pytest.mark.parametrize(
        "first, second",
        [
            (("a,b", "c"), ("a", "b,c")),
            (('a","b', "c"), ("a", 'b","c')),
            (("a\0b", "c"), ("a", "b\0c")),
            (("a\\", "c"), ("a", "\\c")),
        ],
        ids=["comma", "quoted-comma", "nul", "backslash"],
    )
    def test_separator_inside_a_name_cannot_collide(self, first, second):
        """Moving a separator between the workload and the policy label
        changes the key: the canonical form is injective."""
        config = ndp_config()

        def key(workload, label):
            return result_cache.cache_key(
                workload, label, TraceScale.TINY, 0, config, config
            )

        assert key(*first) != key(*second)


class TestSharedFactories:
    """``ndp_config``/``baseline_config`` return one shared frozen
    instance per argument tuple, so the digest memoized on it serves
    every caller."""

    def test_one_instance_per_argument_tuple(self):
        assert ndp_config() is ndp_config()
        assert baseline_config() is baseline_config()
        assert ndp_config(cross_stack_ratio=0.25) is ndp_config(cross_stack_ratio=0.25)
        assert ndp_config(cross_stack_ratio=0.25) is not ndp_config()

    def test_int_and_float_arguments_build_separate_instances(self):
        """Equal arguments of different types never share an instance. A
        multiplier stored as given serializes differently, so it keys
        apart; a ratio that only scales a float bandwidth builds the
        same values, so it keys alike."""
        as_int = ndp_config(warp_capacity_multiplier=1)
        as_float = ndp_config(warp_capacity_multiplier=1.0)
        assert as_int is not as_float
        assert type(as_float.stacks.warp_capacity_multiplier) is float
        assert _key(config=as_int) != _key(config=as_float)

        as_int = ndp_config(cross_stack_ratio=1)
        as_float = ndp_config(cross_stack_ratio=1.0)
        assert as_int is not as_float
        assert as_int.links.cross_stack_gbps == 80.0
        assert type(as_int.links.cross_stack_gbps) is float
        assert _key(config=as_int) == _key(config=as_float)

    @pytest.mark.parametrize(
        "factory",
        [baseline_config, ndp_config, lambda: ndp_config(cross_stack_ratio=0.25)],
        ids=["baseline", "ndp", "ndp-cross-0.25"],
    )
    def test_replaced_copy_keys_like_the_shared_instance(self, factory):
        shared = factory()
        copy = dataclasses.replace(shared)
        assert copy is not shared and copy == shared
        assert _key(config=copy, run_config=copy) == _key(
            config=shared, run_config=shared
        )

    def test_repeated_warm_figure8_serializes_no_config(self, monkeypatch):
        """Once a process has keyed the suite's configs, a later warm
        ``figure8`` reuses every digest: it serializes none."""
        figures.figure8(scale=TraceScale.TINY, seed=0)
        figures.figure8(scale=TraceScale.TINY, seed=0)
        serialized = []
        fields_of = result_cache._fields_of

        def spy_fields(section):
            serialized.append(section)
            return fields_of(section)

        monkeypatch.setattr(result_cache, "_fields_of", spy_fields)
        hits = result_cache.stats["hits"]
        figures.figure8(scale=TraceScale.TINY, seed=0)
        assert result_cache.stats["hits"] - hits == 50
        assert serialized == []


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self, sp_bmap_result):
        assert result_from_dict(result_to_dict(sp_bmap_result)) == sp_bmap_result

    def test_store_load_round_trip(self, sp_bmap_result):
        key = _key()
        result_cache.store(key, sp_bmap_result)
        loaded = result_cache.load(key)
        assert loaded == sp_bmap_result
        assert loaded is not sp_bmap_result

    def test_survives_json_serialization(self, sp_bmap_result):
        payload = json.loads(json.dumps(result_to_dict(sp_bmap_result)))
        assert result_from_dict(payload) == sp_bmap_result


def _every_field_result(position, colocation):
    """A result with a distinct value in every stored field: ints and
    floats of either kind, decisions in non-sorted insertion order."""
    return SimulationResult(
        workload="LIB",
        policy_label="ctrl+tmap",
        cycles=123456.75,
        warp_instructions=98765,
        warp_size=32,
        traffic=TrafficBreakdown(1.5, 2.25, 3, 4.0),
        energy=EnergyBreakdown(5e-3, 6.5e-4, 7.25e-5),
        offload=OffloadSummary(
            candidates_considered=11,
            candidates_offloaded=7,
            decision_breakdown={"rejected": 3, "offloaded": 7, "busy": 1},
            offloaded_warp_instructions=4321,
            total_warp_instructions=98765,
            dirty_lines_reported=13,
        ),
        learned_bit_position=position,
        learned_colocation=colocation,
        l1_load_miss_rate=0.125,
        l2_load_miss_rate=0.0625,
        dram_row_hit_rate=0.875,
        extra={"z_last": 2.5, "a_first": 1},
    )


class TestRowCodec:
    """Entry format v4 stores the result as one row of its stored
    fields, decoded in core."""

    @pytest.mark.parametrize("position, colocation", [(None, None), (9, 0.4375)])
    def test_store_load_round_trips_every_field(self, position, colocation):
        result = _every_field_result(position, colocation)
        key = _key()
        result_cache.store(key, result)
        loaded = result_cache.load(key)
        assert loaded == result
        assert [type(value) for value in loaded.to_row()] == [
            type(value) for value in result.to_row()
        ]
        assert list(loaded.offload.decision_breakdown) == ["rejected", "offloaded", "busy"]
        assert list(loaded.extra) == ["z_last", "a_first"]
        assert result_cache.stats["corrupt"] == 0

    def test_body_is_the_row_without_derived_values(self):
        result = _every_field_result(None, None)
        key = _key()
        result_cache.store(key, result)
        path = result_cache.cache_dir() / f"{key}.json"
        body = path.read_bytes().partition(b"\n")[2]
        assert json.loads(body) == result.to_row()
        assert len(result.to_row()) == 24
        assert b"ipc" not in body and b"total" not in body

    def test_load_and_store_never_import_the_analysis_layer(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from repro.core import result_cache
            from repro.energy.model import EnergyBreakdown
            from repro.core.results import OffloadSummary, SimulationResult
            from repro.interconnect.links import TrafficBreakdown

            result = SimulationResult(
                "SP", "baseline", 10.0, 20, 32,
                TrafficBreakdown(1.0, 2.0, 3.0, 4.0),
                EnergyBreakdown(1.0, 2.0, 3.0),
                OffloadSummary(0, 0, {}, 0, 20, 0),
            )
            result_cache.store("k" * 64, result)
            assert result_cache.load("k" * 64) == result
            assert result_cache.stats["hits"] == 1
            print(sorted(name for name in sys.modules if name.startswith("repro.analysis")))
            """
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path), PYTHONPATH=_SRC)
        env.pop("REPRO_NO_CACHE", None)
        env.pop("REPRO_FAULTS", None)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"


class TestHitMiss:
    def test_miss_then_hit(self):
        first = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        assert result_cache.stats["stores"] >= 1
        hits_before = result_cache.stats["hits"]
        # A fresh runner has an empty in-memory cache: the hit below can
        # only come from disk.
        second = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        assert result_cache.stats["hits"] == hits_before + 1
        assert first == second

    def test_hit_skips_simulation(self, monkeypatch):
        WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)

        def boom(self):
            raise AssertionError("cache hit must not simulate")

        monkeypatch.setattr(Simulator, "run", boom)
        WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)

    def test_hit_skips_trace_build(self, monkeypatch):
        """On a full cache hit the trace is never generated."""
        WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        import repro.core.experiment as experiment

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not build a trace")

        monkeypatch.setattr(experiment, "build_trace", boom)
        WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)

    def test_config_change_misses(self, monkeypatch):
        WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        ran = []
        original = Simulator.run

        def spy(self):
            ran.append(True)
            return original(self)

        monkeypatch.setattr(Simulator, "run", spy)
        WorkloadRunner(
            "SP",
            scale=TraceScale.TINY,
            ndp_configuration=ndp_config(warp_capacity_multiplier=2),
        ).run(NDP_CTRL_BMAP)
        assert ran, "changed config must invalidate the cached result"

    def test_ad_hoc_workload_objects_stay_off_disk(self, monkeypatch):
        """Only name-reconstructible (string) workloads use the
        persistent cache."""
        from repro import make_workload

        stores_before = result_cache.stats["stores"]
        WorkloadRunner(make_workload("SP"), scale=TraceScale.TINY).run(
            NDP_CTRL_BMAP
        )
        assert result_cache.stats["stores"] == stores_before


class TestDisableAndCorruption:
    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not result_cache.enabled()
        WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        assert result_cache.stats["stores"] == 0
        assert result_cache.stats["hits"] == 0

    def test_corrupt_entry_is_a_miss(self):
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        result_cache.store(key, result)
        path = result_cache.cache_dir() / f"{key}.json"
        path.write_text("{ not json")
        assert result_cache.load(key) is None
        assert not path.exists(), "corrupt entries leave the cache"
        assert (result_cache.quarantine_dir() / path.name).exists(), (
            "corrupt entries are quarantined, not deleted"
        )
        assert result_cache.stats["corrupt"] == 1

    def test_stale_format_is_a_miss(self):
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        result_cache.store(key, result)
        path = result_cache.cache_dir() / f"{key}.json"
        header, stored = _read_entry(path)
        header["format"] = -1
        _write_entry(path, header, stored)
        assert result_cache.load(key) is None
        assert result_cache.stats["corrupt"] == 1

    def test_checksum_mismatch_is_caught(self):
        """A bit-rotted result — valid JSON, current format, one value
        perturbed — fails checksum verification and is quarantined."""
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        result_cache.store(key, result)
        path = result_cache.cache_dir() / f"{key}.json"
        header, stored = _read_entry(path)
        stored = dataclasses.replace(stored, cycles=stored.cycles + 1)
        _write_entry(path, header, stored)
        assert result_cache.load(key) is None
        assert result_cache.stats["corrupt"] == 1
        assert (result_cache.quarantine_dir() / path.name).exists()

    def test_checksum_survives_honest_round_trip(self):
        """The checksum over the stored result bytes holds under a
        store/load round trip (key ordering and float formatting
        included)."""
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        result_cache.store(key, result)
        assert result_cache.load(key) == result
        assert result_cache.stats["corrupt"] == 0

    def test_corrupt_store_heals_on_next_run(self, monkeypatch):
        """End to end: a store corrupted in flight (fault injection) is
        detected on the next load, quarantined, and transparently
        re-simulated — the caller sees identical results."""
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:mode=flip")
        first = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        monkeypatch.delenv("REPRO_FAULTS")
        second = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        assert first == second
        assert result_cache.stats["corrupt"] == 1
        assert list(result_cache.quarantine_dir().glob("*.json"))

    def test_flip_fault_fails_the_checksum(self, monkeypatch, caplog):
        """``corrupt-cache:mode=flip`` lands in the result bytes, not in
        the header's format version, so it is caught by the checksum."""
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:mode=flip")
        result_cache.store(key, result)
        monkeypatch.delenv("REPRO_FAULTS")
        with caplog.at_level(logging.WARNING, logger="repro.result_cache"):
            assert result_cache.load(key) is None
        assert result_cache.stats["corrupt"] == 1
        assert "(checksum mismatch)" in caplog.text

    def test_quarantined_entries_survive_clear(self):
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        result_cache.store(key, result)
        (result_cache.cache_dir() / f"{key}.json").write_text("{ not json")
        result_cache.load(key)
        result_cache.clear()
        assert list(result_cache.quarantine_dir().glob("*.json")), (
            "clear() removes entries, never the quarantined evidence"
        )

    def test_reset_stats_covers_corrupt(self):
        result_cache.stats["corrupt"] = 5
        result_cache.reset_stats()
        assert result_cache.stats["corrupt"] == 0

    def test_clear(self):
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        result_cache.store(_key(), result)
        assert result_cache.clear() >= 1
        assert result_cache.load(_key()) is None


def _stored_entry(sp_bmap_result):
    """Store ``sp_bmap_result`` under the default key; returns the key,
    its entry path, and the entry's header line and result bytes."""
    key = _key()
    result_cache.store(key, sp_bmap_result)
    path = result_cache.cache_dir() / f"{key}.json"
    header, _, body = path.read_bytes().partition(b"\n")
    return key, path, header, body


class TestHeaderFastPath:
    """``load`` accepts a header byte-identical to the one ``store``
    writes without parsing it; every other header takes the
    parse-and-classify path, with the same outcome as before."""

    def test_store_writes_the_compact_header(self, sp_bmap_result):
        _, _, header, body = _stored_entry(sp_bmap_result)
        checksum = hashlib.sha256(body).hexdigest()
        assert header == json.dumps(
            {"format": 4, "checksum": checksum}, separators=(",", ":")
        ).encode()

    def test_valid_header_spelled_differently_still_hits(self, sp_bmap_result):
        key, path, _, body = _stored_entry(sp_bmap_result)
        checksum = hashlib.sha256(body).hexdigest()
        spelled = json.dumps({"checksum": checksum, "format": 4}, indent=1)
        path.write_bytes(spelled.replace("\n", " ").encode() + b"\n" + body)
        before = dict(result_cache.stats)
        assert result_cache.load(key) == sp_bmap_result
        assert result_cache.stats["hits"] == before["hits"] + 1
        assert result_cache.stats["misses"] == before["misses"]
        assert result_cache.stats["corrupt"] == before["corrupt"]
        assert path.exists()

    @staticmethod
    def _flipped_body(header, body):
        flipped = bytearray(body)
        flipped[len(flipped) // 2] ^= 0x01
        return header + b"\n" + bytes(flipped), "checksum mismatch"

    @staticmethod
    def _stale_format(header, body):
        checksum = hashlib.sha256(body).hexdigest()
        stale = json.dumps({"format": 2, "checksum": checksum}, separators=(",", ":"))
        return stale.encode() + b"\n" + body, "stale format 2"

    @staticmethod
    def _truncated_header(header, body):
        truncated = header[: len(header) // 2]
        try:
            json.loads(truncated)
        except ValueError as error:
            reason = f"unreadable: {error}"
        return truncated + b"\n" + body, reason

    @staticmethod
    def _non_dict_header(header, body):
        checksum = hashlib.sha256(body).hexdigest()
        return json.dumps([4, checksum]).encode() + b"\n" + body, "malformed payload"

    @staticmethod
    def _v3_header(header, body):
        checksum = hashlib.sha256(body).hexdigest()
        v3 = json.dumps({"format": 3, "checksum": checksum}, separators=(",", ":"))
        return v3.encode() + b"\n" + body, "stale format 3"

    @staticmethod
    def _rewritten_row(body, edit):
        """An entry whose row is ``edit``-ed and re-checksummed, so it
        passes the header and checksum checks and fails in decoding."""
        row = json.loads(body)
        edit(row)
        body = json.dumps(row, separators=(",", ":")).encode()
        return result_cache._header(hashlib.sha256(body).hexdigest()) + b"\n" + body

    @classmethod
    def _short_row(cls, header, body):
        data = cls._rewritten_row(body, lambda row: row.pop())
        return data, "undecodable result: not a 24-field result row"

    @classmethod
    def _decisions_not_an_object(cls, header, body):
        def edit(row):
            row[14] = list(row[14].items())

        data = cls._rewritten_row(body, edit)
        return data, "undecodable result: decisions and extra must be objects"

    @pytest.mark.parametrize(
        "damage",
        [
            "_flipped_body",
            "_stale_format",
            "_v3_header",
            "_truncated_header",
            "_non_dict_header",
            "_short_row",
            "_decisions_not_an_object",
        ],
    )
    def test_damaged_entry_is_quarantined_with_its_reason(
        self, damage, sp_bmap_result, caplog
    ):
        key, path, header, body = _stored_entry(sp_bmap_result)
        data, reason = getattr(self, damage)(header, body)
        path.write_bytes(data)
        before = dict(result_cache.stats)
        with caplog.at_level(logging.WARNING, logger="repro.result_cache"):
            assert result_cache.load(key) is None
        assert f"quarantined corrupt entry {path.name} ({reason})" in caplog.text
        assert result_cache.stats["corrupt"] == before["corrupt"] + 1
        assert result_cache.stats["misses"] == before["misses"] + 1
        assert result_cache.stats["hits"] == before["hits"]
        assert not path.exists()
        assert (result_cache.quarantine_dir() / path.name).read_bytes() == data


class TestWarmSuiteRunsNothing:
    def test_warm_figure8_suite_zero_simulator_runs(self, monkeypatch):
        """Acceptance criterion: after one cold run, a warm-cache
        ``run_figure8_suite()`` completes with zero ``Simulator.run()``
        calls (and zero trace builds)."""
        cold = run_figure8_suite(scale=TraceScale.TINY, seed=0)

        def boom(self):
            raise AssertionError("warm suite must not simulate")

        monkeypatch.setattr(Simulator, "run", boom)
        warm = run_figure8_suite(scale=TraceScale.TINY, seed=0)
        assert warm == cold

    def test_warm_figure8_suite_zero_constructions(self, monkeypatch):
        """Stronger than zero ``run()`` calls: a warm supervised
        Figure-8 run constructs no Simulator (grid lanes included —
        every lane is a plain ``Simulator``) and builds no trace.
        Guards the grid path's contract of probing every lane's cache
        before touching the trace."""
        cold = run_figure8_suite(scale=TraceScale.TINY, seed=0)

        import repro.core.experiment as experiment

        def boom_init(self, *args, **kwargs):
            raise AssertionError("warm suite must not construct a Simulator")

        def boom_trace(*args, **kwargs):
            raise AssertionError("warm suite must not build a trace")

        monkeypatch.setattr(Simulator, "__init__", boom_init)
        monkeypatch.setattr(experiment, "build_trace", boom_trace)
        warm = run_figure8_suite(scale=TraceScale.TINY, seed=0)
        assert warm == cold

    def test_warm_figure8_hashes_each_config_once(self, monkeypatch):
        """A warm ``figure8`` serializes each distinct config object at
        most once for its keys, and verifying an entry re-serializes
        nothing: ``load`` makes no ``json.dumps`` call."""
        figures.figure8(scale=TraceScale.TINY, seed=0)

        serialized = []
        fields_of = result_cache._fields_of
        asdict = dataclasses.asdict

        def spy_fields(section):
            if isinstance(section, SystemConfig):
                serialized.append(section)
            return fields_of(section)

        def spy_asdict(obj, *args, **kwargs):
            serialized.append(obj)
            return asdict(obj, *args, **kwargs)

        dumps = json.dumps
        in_load = []
        dumps_in_load = []

        def spy_dumps(*args, **kwargs):
            if in_load:
                dumps_in_load.append(args)
            return dumps(*args, **kwargs)

        load = result_cache.load

        def spy_load(key, *args):
            in_load.append(key)
            try:
                return load(key, *args)
            finally:
                in_load.pop()

        monkeypatch.setattr(result_cache, "_fields_of", spy_fields)
        monkeypatch.setattr(dataclasses, "asdict", spy_asdict)
        monkeypatch.setattr(json, "dumps", spy_dumps)
        monkeypatch.setattr(result_cache, "load", spy_load)
        # As in a fresh process: the shared factories build new
        # instances, whose digests are not yet computed.
        ndp_config.cache_clear()
        baseline_config.cache_clear()
        hits = result_cache.stats["hits"]
        figures.figure8(scale=TraceScale.TINY, seed=0)

        assert result_cache.stats["hits"] - hits == 50
        assert serialized
        assert len(serialized) == len({id(config) for config in serialized})
        assert dumps_in_load == []
