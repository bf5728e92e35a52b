"""Persistent, content-addressed cache of simulation results.

Figures 8, 9, and 10 are three views of the same 50 simulations; the
warp-capacity and bandwidth sweeps re-run the baseline and ctrl+tmap
points of that grid again. The cache makes every ``(workload, config,
policy, scale, seed)`` combination pay its simulation cost exactly once
— across processes (parallel suite workers share it) and across runs
(it lives on disk).

Layout: one file per result under the cache directory, named by a
SHA-256 over every input that determines the result:

* workload name, trace scale, trace seed;
* the *trace* configuration (traces are built from the NDP config even
  for baseline runs) and the *run* configuration, each as the SHA-256 of
  its canonical JSON (computed once per config instance and kept on it);
* the policy label (and oracle position, when pinned);
* a code version: a hash over every ``.py`` source file of the
  ``repro`` package, so any code change invalidates the whole cache.

Environment knobs (documented in ``docs/PERFORMANCE.md``):

``REPRO_CACHE_DIR``
    Cache directory; default ``~/.cache/repro-tom``.
``REPRO_NO_CACHE=1``
    Disable the cache entirely (every run simulates).

Results are stored via the lossless JSON serialization in
:mod:`repro.analysis.export` (imported lazily to keep the core layer
import-free of the analysis layer).

Entry format v3: a header line ``{"format":3,"checksum":"<sha256>"}``,
then the result's compact JSON. The checksum covers exactly those
result bytes, so a hit is one read, one hash and one parse. Entries
that fail any check — unreadable, unparseable header, stale format,
checksum mismatch, undecodable result — count in ``stats["corrupt"]``,
log a one-line warning, and are *quarantined* (moved to
``<cache>/quarantine/``, not deleted) so a corruption bug can be
diagnosed from the evidence; the load then behaves as a miss and the
entry is rewritten. See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ..config import SystemConfig, env_flag, env_text
from ..trace.generator import TraceScale
from .results import SimulationResult

#: Bump when the on-disk payload format changes.
#: v2: payload checksum added (integrity verification + quarantine).
#: v3: header line + result bytes; the checksum covers the stored bytes.
_FORMAT_VERSION = 3

#: Process-local counters, mainly for tests and diagnostics.
stats = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}

_log = logging.getLogger("repro.result_cache")


def enabled() -> bool:
    """The cache is on unless ``REPRO_NO_CACHE`` is set to a truthy flag."""
    return not env_flag("REPRO_NO_CACHE")


def _cache_root() -> str:
    override = env_text("REPRO_CACHE_DIR").strip()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-tom")


def cache_dir() -> Path:
    return Path(_cache_root())


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of every ``repro`` source file: any code change invalidates
    every cached result (conservative, but always safe)."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _fields_of(section) -> dict:
    """``json.dumps`` hook: a config dataclass as its field dictionary
    (the same JSON ``dataclasses.asdict`` gives, without its deep copy)."""
    return {
        field.name: getattr(section, field.name)
        for field in dataclasses.fields(section)
    }


def _config_digest(config: SystemConfig) -> str:
    """SHA-256 of ``config``'s canonical JSON, computed once per instance
    and kept on the (frozen) instance. Memoized by identity, not value:
    ``1 == 1.0`` compares equal, but the two serialize differently."""
    digest = config.__dict__.get("_cache_digest")
    if digest is None:
        canonical = json.dumps(
            config, default=_fields_of, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        object.__setattr__(config, "_cache_digest", digest)
    return digest


def cache_key(
    workload: str,
    policy_label: str,
    scale: TraceScale,
    seed: int,
    trace_config: SystemConfig,
    run_config: SystemConfig,
    oracle_position: Optional[int] = None,
) -> str:
    """Content address of one simulation. Stable across processes and
    interpreter sessions for identical inputs."""
    payload = {
        "format": _FORMAT_VERSION,
        "code": code_version(),
        "workload": workload,
        "policy": policy_label,
        "scale": scale.name,
        "seed": seed,
        "trace_config": _config_digest(trace_config),
        "run_config": _config_digest(run_config),
        "oracle_position": oracle_position,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _entry_path(key: str) -> str:
    return os.path.join(_cache_root(), key + ".json")


def quarantine_dir() -> Path:
    """Where entries that failed integrity checks are moved aside."""
    return cache_dir() / "quarantine"


def _quarantine(path: str, reason: str) -> None:
    """Move a bad entry aside (never silently delete the evidence) and
    log a one-line warning; best-effort on filesystem errors."""
    stats["corrupt"] += 1
    name = os.path.basename(path)
    try:
        directory = quarantine_dir()
        directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, directory / name)
        _log.warning("result cache: quarantined corrupt entry %s (%s)", name, reason)
    except OSError:
        _log.warning(
            "result cache: corrupt entry %s (%s) could not be quarantined",
            name,
            reason,
        )


def load(key: str) -> Optional[SimulationResult]:
    """Fetch a cached result; ``None`` on miss (or when disabled).

    A corrupt entry — unreadable, unparseable header, stale format,
    checksum mismatch, or undecodable result — counts as both
    ``corrupt`` and a miss, and is moved to the quarantine directory
    rather than deleted."""
    if not enabled():
        return None
    path = _entry_path(key)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        stats["misses"] += 1
        return None
    except OSError as error:
        _quarantine(path, f"unreadable: {error}")
        stats["misses"] += 1
        return None
    header, _, body = data.partition(b"\n")
    reason = None
    result = None
    try:
        meta = json.loads(header)
    except ValueError as error:
        reason = f"unreadable: {error}"
    else:
        if not isinstance(meta, dict):
            reason = "malformed payload"
        elif meta.get("format") != _FORMAT_VERSION:
            reason = f"stale format {meta.get('format')!r}"
        elif meta.get("checksum") != hashlib.sha256(body).hexdigest():
            reason = "checksum mismatch"
        else:
            from ..analysis.export import result_from_dict

            try:
                result = result_from_dict(json.loads(body))
            except (KeyError, TypeError, ValueError) as error:
                reason = f"undecodable result: {error}"
    if reason is not None:
        _quarantine(path, reason)
        stats["misses"] += 1
        return None
    stats["hits"] += 1
    return result


def store(key: str, result: SimulationResult) -> None:
    """Persist a result under ``key``. Atomic (write + rename) so
    concurrent workers never observe half-written entries; best-effort —
    an unwritable cache directory degrades to no caching."""
    if not enabled():
        return
    from ..analysis.export import result_to_dict

    # Insertion order, not sorted keys: a warm result's dicts iterate
    # exactly as the cold one's did.
    body = json.dumps(result_to_dict(result), separators=(",", ":")).encode()
    header = json.dumps(
        {"format": _FORMAT_VERSION, "checksum": hashlib.sha256(body).hexdigest()},
        separators=(",", ":"),
    ).encode()
    data = header + b"\n" + body
    from ..testing import faults

    if faults.active():
        data = faults.corrupt_payload(f"cache/{key}", data)
    directory = _cache_root()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=".tmp-", suffix=".json", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, _entry_path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return
    stats["stores"] += 1


def clear() -> int:
    """Delete every cache entry; returns the number removed."""
    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return 0
    for path in directory.glob("*.json"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def reset_stats() -> None:
    stats["hits"] = stats["misses"] = stats["stores"] = stats["corrupt"] = 0
