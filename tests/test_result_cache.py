"""Tests for the persistent result cache (repro.core.result_cache).

Every test runs against a per-test ``REPRO_CACHE_DIR`` (the autouse
fixture in conftest.py), so nothing touches the user's real cache.
"""

from __future__ import annotations

import dataclasses
import json
import logging

import pytest

from repro import TraceScale, WorkloadRunner, baseline_config, ndp_config
from repro.analysis import figures
from repro.analysis.export import result_from_dict, result_to_dict
from repro.analysis.figures import run_figure8_suite
from repro.config import SystemConfig
from repro.core import result_cache
from repro.core.policies import NDP_CTRL_BMAP
from repro.core.simulator import Simulator


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
    """A v3 entry as (header dict, result dict)."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), json.loads(body)


def _write_entry(path, header, result_payload):
    path.write_bytes(
        json.dumps(header).encode()
        + b"\n"
        + json.dumps(result_payload, separators=(",", ":")).encode()
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
        first, second = ndp_config(), ndp_config()
        assert first is not second
        assert _key(config=first) == _key(config=second)
        assert _key(config=first, run_config=baseline_config()) == _key(
            config=second, run_config=baseline_config()
        )

    def test_every_leaf_field_is_in_the_key(self):
        """Changing any one leaf of the trace or the run configuration
        changes the key."""
        base = ndp_config()
        reference = _key(config=base)
        paths = list(_leaf_paths(base))
        assert len(paths) > 50
        for path in paths:
            changed = _with_leaf(base, path, _changed(_leaf(base, path)))
            assert _key(config=changed, run_config=base) != reference, path
            assert _key(config=base, run_config=changed) != reference, path

    def test_int_swapped_for_equal_float_changes_the_key(self):
        """The per-instance digest is not a by-value memo: ``1 == 1.0``
        but the two serialize differently, so their keys differ."""
        base = ndp_config()
        reference = _key(config=base)
        int_paths = [p for p in _leaf_paths(base) if type(_leaf(base, p)) is int]
        assert int_paths
        for path in int_paths:
            as_float = _with_leaf(base, path, float(_leaf(base, path)))
            assert as_float == base
            assert _key(config=as_float, run_config=base) != reference, path
            assert _key(config=base, run_config=as_float) != reference, path


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
        header, payload = _read_entry(path)
        header["format"] = -1
        _write_entry(path, header, payload)
        assert result_cache.load(key) is None
        assert result_cache.stats["corrupt"] == 1

    def test_checksum_mismatch_is_caught(self):
        """A bit-rotted result — valid JSON, current format, one value
        perturbed — fails checksum verification and is quarantined."""
        result = WorkloadRunner("SP", scale=TraceScale.TINY).run(NDP_CTRL_BMAP)
        key = _key()
        result_cache.store(key, result)
        path = result_cache.cache_dir() / f"{key}.json"
        header, payload = _read_entry(path)
        payload["cycles"] += 1
        _write_entry(path, header, payload)
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

        def spy_load(key):
            in_load.append(key)
            try:
                return load(key)
            finally:
                in_load.pop()

        monkeypatch.setattr(result_cache, "_fields_of", spy_fields)
        monkeypatch.setattr(dataclasses, "asdict", spy_asdict)
        monkeypatch.setattr(json, "dumps", spy_dumps)
        monkeypatch.setattr(result_cache, "load", spy_load)
        hits = result_cache.stats["hits"]
        figures.figure8(scale=TraceScale.TINY, seed=0)

        assert result_cache.stats["hits"] - hits == 50
        assert serialized
        assert len(serialized) == len({id(config) for config in serialized})
        assert dumps_in_load == []
