"""Content address of one workload's point in a run grid.

Nothing in the program calls :func:`job_key`: the persistent result
cache (:mod:`repro.core.result_cache`) is the only record of which
points are done. It stays because the end-to-end benchmark's tracer
(``perfbench/tracer.py``) wraps ``repro.core.manifest.job_key`` by name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict

from ..config import SystemConfig
from ..trace.generator import TraceScale


def _config_fingerprint(config: SystemConfig) -> Dict:
    return dataclasses.asdict(config)


def run_fingerprint(
    scale: TraceScale,
    seed: int,
    trace_config: SystemConfig,
    base_config: SystemConfig,
) -> str:
    """Identity of one (scale, seed, configuration) parameter grid."""
    payload = {
        "scale": scale.name,
        "seed": seed,
        "trace_config": _config_fingerprint(trace_config),
        "base_config": _config_fingerprint(base_config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def job_key(
    workload: str,
    scale: TraceScale,
    seed: int,
    trace_config: SystemConfig,
    base_config: SystemConfig,
) -> str:
    """Content address of one workload's point in the run grid."""
    payload = {
        "workload": workload,
        "run": run_fingerprint(scale, seed, trace_config, base_config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
