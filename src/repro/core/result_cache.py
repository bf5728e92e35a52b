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
* the *trace identity* (:func:`~repro.trace.generator.trace_digest`):
  the SHA-256 of :func:`~repro.trace.generator.trace_fingerprint` of
  the configuration the trace is built from, which covers every field
  :func:`~repro.trace.generator.build_trace` reads. NDP configs that
  differ only in fields no trace reads (bandwidths, warp capacity,
  control thresholds) build one trace, so the baseline point of every
  such sweep — it runs on the baseline configuration — is one key, not
  one per swept configuration;
* the *run* configuration, as the SHA-256 of its canonical JSON;
* the policy label (and oracle position, when pinned);
* a code version: a hash over every ``.py`` source file of the
  ``repro`` package, so any code change invalidates the whole cache.

Both configuration digests are computed once per config instance and
kept on it (:func:`~repro.config.ndp_config` and
:func:`~repro.config.baseline_config` return shared frozen instances,
so every caller reuses them). The inputs hash as one JSON list in a
fixed order — an injective form that builds and sorts no dict.

Environment knobs (documented in ``docs/PERFORMANCE.md``):

``REPRO_CACHE_DIR``
    Cache directory; default ``~/.cache/repro-tom``.
``REPRO_NO_CACHE=1``
    Disable the cache entirely (every run simulates).

Results are stored via the lossless JSON serialization in
:mod:`repro.analysis.export` (imported on first use to keep the core
layer import-free of the analysis layer).

Entry format v3: a header line ``{"format":3,"checksum":"<sha256>"}``,
then the result's compact JSON. The checksum covers exactly those
result bytes, so a hit is one read, one hash, one byte comparison of
the header against the one :func:`store` writes, and one parse. A
header that is not byte-identical is parsed and checked field by field
instead, so a valid header spelled differently still hits. Entries
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
from ..trace.generator import TraceScale, trace_digest
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


def active_root() -> Optional[str]:
    """The cache directory, or ``None`` when the cache is off: what a
    batch of lookups resolves once and hands to every :func:`load`."""
    return _cache_root() if enabled() else None


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
    interpreter sessions for identical inputs. Of ``trace_config`` only
    its trace identity (``trace_digest``) enters the key.

    The inputs hash as one JSON list in a fixed order. The form is
    injective: JSON keeps the types apart (seed ``1`` vs ``True``,
    oracle position ``None`` vs ``0``) and quotes and escapes every
    string, so no workload or label can run into its neighbour."""
    canonical = json.dumps(
        [
            _FORMAT_VERSION,
            code_version(),
            workload,
            policy_label,
            scale.name,
            seed,
            trace_digest(trace_config),
            _config_digest(run_config),
            oracle_position,
        ]
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _entry_path(key: str, root: str) -> str:
    return os.path.join(root, key + ".json")


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


def _header(checksum: str) -> bytes:
    """The header line :func:`store` writes for a body with SHA-256
    ``checksum``: its compact JSON, ``{"format":3,"checksum":"<hex>"}``
    for format 3 (what ``json.dumps`` gives with ``(",", ":")``
    separators)."""
    return b'{"format":%d,"checksum":"%s"}' % (_FORMAT_VERSION, checksum.encode())


def _header_fault(header: bytes, checksum: str) -> Optional[str]:
    """Why ``header`` does not vouch for a body with SHA-256
    ``checksum``, or ``None`` when it does (any JSON spelling of the
    current format and the right checksum)."""
    try:
        meta = json.loads(header)
    except ValueError as error:
        return f"unreadable: {error}"
    if not isinstance(meta, dict):
        return "malformed payload"
    if meta.get("format") != _FORMAT_VERSION:
        return f"stale format {meta.get('format')!r}"
    if meta.get("checksum") != checksum:
        return "checksum mismatch"
    return None


@lru_cache(maxsize=1)
def _export():
    """:mod:`repro.analysis.export` (the result codec), imported once on
    first use: the analysis layer imports this module, so a top-level
    import would be circular."""
    from ..analysis import export

    return export


def load(key: str, root: Optional[str] = None) -> Optional[SimulationResult]:
    """Fetch a cached result; ``None`` on miss (or when disabled).
    ``root`` is the :func:`active_root` a caller resolved for a batch
    of lookups; without it, ``load`` resolves it itself.

    A header byte-identical to the one :func:`store` writes for the
    body's checksum is accepted without parsing it; any other header is
    parsed and classified. A corrupt entry — unreadable, unparseable
    header, stale format, checksum mismatch, or undecodable result —
    counts as both ``corrupt`` and a miss, and is moved to the
    quarantine directory rather than deleted."""
    if root is None:
        root = active_root()
        if root is None:
            return None
    path = _entry_path(key, root)
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
    checksum = hashlib.sha256(body).hexdigest()
    reason = None
    if header != _header(checksum):
        reason = _header_fault(header, checksum)
    if reason is None:
        try:
            result = _export().result_from_dict(json.loads(body))
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
    # Insertion order, not sorted keys: a warm result's dicts iterate
    # exactly as the cold one's did.
    body = json.dumps(_export().result_to_dict(result), separators=(",", ":")).encode()
    data = _header(hashlib.sha256(body).hexdigest()) + b"\n" + body
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
            os.replace(tmp_name, _entry_path(key, directory))
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
