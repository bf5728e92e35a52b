"""JSONL run manifests: crash-safe progress records for suite runs.

A manifest is an append-only JSONL file written *as outcomes land*
during a supervised suite run: a header line identifying the run
(scale, seed, configuration fingerprint) followed by one line per job
outcome — completed jobs carry their full serialized results, failed
jobs carry the structured :class:`~repro.core.supervisor.JobFailure`.
Because every line is flushed when written, a run killed mid-flight
leaves a readable record of everything that finished; ``repro-tom
suite --resume --manifest PATH`` then re-runs only the points that are
missing or failed (the ``_check_existing_results`` idiom from
campaign-scale runners).

Entries are keyed by a content hash over one variant's identity —
workload, scale, seed, and both configuration fingerprints — so a
manifest can only resume the run that wrote it, and a job carrying
several variants (a parameter sweep) writes one entry per variant.
Re-running a point appends a new line and the *last* entry per key
wins. A truncated trailing line (the crash case) is skipped on load.

The manifest is deliberately self-contained: results are stored
inline (via the lossless serialization in
:mod:`repro.analysis.export`), so resume works even with the result
cache disabled or cold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import ConfigError
from ..trace.generator import TraceScale
from .supervisor import JobOutcome

#: Bump when the manifest line format changes.
MANIFEST_FORMAT = 1


def _config_fingerprint(config: SystemConfig) -> Dict:
    return dataclasses.asdict(config)


def run_fingerprint(
    scale: TraceScale,
    seed: int,
    trace_config: SystemConfig,
    base_config: SystemConfig,
) -> str:
    """Identity of the parameter grid a manifest belongs to (workloads
    and policies may vary between the original run and a resume; the
    per-job keys cover those)."""
    payload = {
        "scale": scale.name,
        "seed": seed,
        "trace_config": _config_fingerprint(trace_config),
        "base_config": _config_fingerprint(base_config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def sweep_fingerprint(
    scale: TraceScale,
    seed: int,
    trace_configs: Sequence[SystemConfig],
    base_config: SystemConfig,
) -> str:
    """Identity of a suite run over one or more NDP-configuration
    variants: a one-variant run keeps its :func:`run_fingerprint` (so
    existing manifests still resume); a sweep hashes the ordered tuple
    of its variants' fingerprints, so resuming with a different variant
    list is refused."""
    keys = [run_fingerprint(scale, seed, cfg, base_config) for cfg in trace_configs]
    if len(keys) == 1:
        return keys[0]
    canonical = json.dumps(keys, separators=(",", ":"))
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


class RunManifest:
    """Append-only JSONL writer for one suite run's job outcomes."""

    def __init__(self, path, header: Dict, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not append or not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a" if append else "w")
        if fresh:
            self._write_line({"kind": "manifest", "format": MANIFEST_FORMAT, **header})

    def _write_line(self, payload: Dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass

    def record(
        self,
        key: str,
        outcome: JobOutcome,
        variant: int = 0,
        extra: Optional[Dict] = None,
    ) -> None:
        """Append one variant of a job outcome (streamed: called as each
        job lands) — a multi-variant job writes one entry per variant,
        each under that variant's own :func:`job_key`; a failed job
        records its failure under every variant's key.

        ``extra`` merges additional identifying fields into the entry —
        the campaign driver records scale/seed/config name per entry so
        a multi-grid campaign manifest stays human-readable — without
        overriding the structural fields written here."""
        from ..analysis.export import result_to_dict  # lazy: core<->analysis

        entry: Dict = dict(extra) if extra else {}
        entry.update(
            kind="job",
            key=key,
            workload=outcome.job.workload,
            policies=[policy.label for policy in outcome.job.policies],
            status="ok" if outcome.ok else "failed",
            attempts=outcome.attempts,
            elapsed=round(outcome.elapsed, 6),
        )
        if outcome.ok and outcome.results is not None:
            entry["results"] = {
                label: result_to_dict(result)
                for label, result in outcome.results[variant].items()
            }
        elif outcome.failure is not None:
            entry["failure"] = outcome.failure.to_dict()
        self._write_line(entry)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_manifest_entries(path) -> Tuple[Optional[Dict], List[Dict]]:
    """Read a manifest back as ``(header, [job entries in file order])``.

    Unparseable lines (the truncated tail a crash can leave) are
    skipped. Every job entry is returned — including superseded ones —
    so callers that need finer-than-entry merge semantics (the campaign
    driver restores per-*policy* results across entries whose pending
    sets differed) can fold the sequence themselves;
    :func:`load_manifest` applies the standard last-entry-wins fold.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest {path} does not exist")
    header: Optional[Dict] = None
    entries: List[Dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # truncated tail from a crash mid-write
            if not isinstance(payload, dict):
                continue
            kind = payload.get("kind")
            if kind == "manifest" and header is None:
                header = payload
            elif kind == "job" and isinstance(payload.get("key"), str):
                entries.append(payload)
    return header, entries


def load_manifest(path) -> Tuple[Optional[Dict], Dict[str, Dict]]:
    """Read a manifest back: ``(header, {job_key: last entry})``.

    Later entries for the same key replace earlier ones, so a point
    that failed and was then re-run successfully reads as ok.
    """
    header, ordered = load_manifest_entries(path)
    entries: Dict[str, Dict] = {}
    for payload in ordered:
        entries[payload["key"]] = payload
    return header, entries


def completed_results(entry: Dict) -> Optional[Dict]:
    """Deserialize the per-policy results of one ``status == "ok"``
    manifest entry; ``None`` when the entry is failed or malformed."""
    if entry.get("status") != "ok":
        return None
    payload = entry.get("results")
    if not isinstance(payload, dict):
        return None
    from ..analysis.export import result_from_dict  # lazy: core<->analysis

    try:
        return {
            label: result_from_dict(result) for label, result in payload.items()
        }
    except (KeyError, TypeError, ValueError):
        return None
