"""Deterministic, environment-driven fault injection (``REPRO_FAULTS``).

The supervised job runner (:mod:`repro.core.supervisor`) promises to
survive worker exceptions, hangs, crashes, and corrupt cache entries.
Those events are rare and timing-dependent in the wild, so this module
makes them reproducible on demand: a spec in the ``REPRO_FAULTS``
environment variable plants faults at named *sites*, and every decision
is drawn from a seeded RNG keyed by ``(seed, rule, site)`` — the same
spec produces the same faults on every run, in every worker process
(workers inherit the environment and rebuild the same plan).

Spec grammar — semicolon-separated clauses::

    REPRO_FAULTS="seed=7;crash@job/SP;raise@job/RD:p=0.5;hang@job/LIB:t=30;corrupt-cache:mode=truncate"

    clause := "seed=" INT                    -- global RNG seed (default 0)
            | KIND ["@" TARGET] (":" PARAM)*
    KIND   := raise | hang | crash | corrupt-cache
    TARGET := substring matched against the site label (default: matches all)
    PARAM  := p=FLOAT   probability per check, in [0, 1]   (default 1.0)
            | n=INT     max firings of this rule           (default unlimited)
            | t=FLOAT   hang duration in seconds           (default 3600)
            | code=INT  crash exit status                  (default 17)
            | mode=flip|truncate  cache-corruption flavor  (default flip)

Sites currently instrumented:

* ``job/<WORKLOAD>`` — checked by the supervisor's worker entry point
  before a job executes. ``raise`` raises :class:`InjectedFault`,
  ``hang`` sleeps ``t`` seconds (long enough to trip a job timeout),
  ``crash`` calls ``os._exit`` (simulating an OOM kill / segfault).
* ``cache/<KEY>`` — checked by :func:`repro.core.result_cache.store`;
  ``corrupt-cache`` mangles the payload bytes on their way to disk
  (``flip`` perturbs one digit of the result bytes, after the header
  line, so the JSON stays parseable but the checksum fails;
  ``truncate`` cuts the entry in half, so the result bytes no longer
  match the checksum either and would not parse).

Firing counts (``n=``) are process-local unless ``REPRO_FAULTS_STATE``
names a directory, in which case claims are recorded as exclusively
created marker files and the limit holds across processes — that is
what lets a test inject a fault that fires on the first attempt and
lets the retry succeed, even though the retry runs in a fresh worker.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError


class FaultSpecError(ReproError):
    """The ``REPRO_FAULTS`` spec could not be parsed."""


class InjectedFault(ReproError):
    """The exception thrown by a ``raise`` fault rule."""


_KINDS = ("raise", "hang", "crash", "corrupt-cache")


@dataclass
class FaultRule:
    """One parsed clause of the spec."""

    kind: str
    target: str = ""
    probability: float = 1.0
    max_fires: Optional[int] = None
    hang_seconds: float = 3600.0
    exit_code: int = 17
    mode: str = "flip"
    #: Position in the spec; part of the rule's RNG stream identity.
    index: int = 0

    def matches(self, site: str) -> bool:
        return self.target in site


@dataclass
class FaultPlan:
    """Every rule of one spec plus the decision state."""

    seed: int = 0
    rules: List[FaultRule] = field(default_factory=list)
    _fired: Dict[Tuple[int, str], int] = field(default_factory=dict)
    _streams: Dict[Tuple[int, str], random.Random] = field(default_factory=dict)

    def _stream(self, rule: FaultRule, site: str) -> random.Random:
        key = (rule.index, site)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(f"{self.seed}:{rule.index}:{site}")
            self._streams[key] = stream
        return stream

    def _claim(self, rule: FaultRule, site: str) -> bool:
        """Reserve one firing of an ``n=``-limited rule. Cross-process
        when ``REPRO_FAULTS_STATE`` points at a shared directory."""
        limit = rule.max_fires
        assert limit is not None
        state_dir = os.environ.get("REPRO_FAULTS_STATE", "").strip()
        if not state_dir:
            key = (rule.index, site)
            fired = self._fired.get(key, 0)
            if fired >= limit:
                return False
            self._fired[key] = fired + 1
            return True
        os.makedirs(state_dir, exist_ok=True)
        stem = hashlib.sha256(f"{rule.index}:{site}".encode()).hexdigest()[:12]
        for slot in range(limit):
            path = os.path.join(state_dir, f"fault-{stem}-{slot}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
        return False

    def should_fire(self, rule: FaultRule, site: str) -> bool:
        if not rule.matches(site):
            return False
        if rule.probability <= 0.0:
            return False
        if (
            rule.probability < 1.0
            and self._stream(rule, site).random() >= rule.probability
        ):
            return False
        if rule.max_fires is not None and not self._claim(rule, site):
            return False
        return True


def parse_spec(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec; raises :class:`FaultSpecError` on
    unknown kinds or malformed parameters."""
    plan = FaultPlan()
    for raw in text.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                plan.seed = int(clause[len("seed="):])
            except ValueError:
                raise FaultSpecError(f"bad fault seed {clause!r}") from None
            continue
        parts = clause.split(":")
        kind, _, target = parts[0].partition("@")
        if kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (expected one of {', '.join(_KINDS)})"
            )
        rule = FaultRule(kind=kind, target=target, index=len(plan.rules))
        for param in parts[1:]:
            name, sep, value = param.partition("=")
            if not sep:
                raise FaultSpecError(f"malformed fault parameter {param!r}")
            try:
                if name == "p":
                    rule.probability = float(value)
                    if not 0.0 <= rule.probability <= 1.0:
                        raise FaultSpecError(
                            f"fault probability must be in [0, 1], got {value}"
                        )
                elif name == "n":
                    rule.max_fires = int(value)
                    if rule.max_fires < 1:
                        raise FaultSpecError("fault n= must be >= 1")
                elif name == "t":
                    rule.hang_seconds = float(value)
                elif name == "code":
                    rule.exit_code = int(value)
                elif name == "mode":
                    if value not in ("flip", "truncate"):
                        raise FaultSpecError(
                            f"corrupt-cache mode must be flip or truncate, got {value!r}"
                        )
                    rule.mode = value
                else:
                    raise FaultSpecError(f"unknown fault parameter {name!r}")
            except ValueError:
                raise FaultSpecError(
                    f"bad value for fault parameter {param!r}"
                ) from None
        plan.rules.append(rule)
    return plan


#: (spec text, parsed plan) — re-parsed whenever the env value changes,
#: so firing counts persist across calls under one stable spec.
_cached: Optional[Tuple[str, FaultPlan]] = None


def active() -> bool:
    """True when ``REPRO_FAULTS`` is set and non-empty."""
    return bool(os.environ.get("REPRO_FAULTS", "").strip())


def plan() -> Optional[FaultPlan]:
    """The parsed plan for the current ``REPRO_FAULTS`` value (cached),
    or ``None`` when fault injection is off."""
    global _cached
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    if _cached is None or _cached[0] != spec:
        _cached = (spec, parse_spec(spec))
    return _cached[1]


def maybe_fault(site: str) -> None:
    """Evaluate every execution-fault rule against ``site``: may raise
    :class:`InjectedFault`, sleep (``hang``), or terminate the process
    (``crash``). A no-op when ``REPRO_FAULTS`` is unset."""
    current = plan()
    if current is None:
        return
    for rule in current.rules:
        if rule.kind == "corrupt-cache":
            continue
        if not current.should_fire(rule, site):
            continue
        if rule.kind == "raise":
            raise InjectedFault(f"injected fault at {site}")
        if rule.kind == "hang":
            time.sleep(rule.hang_seconds)
        elif rule.kind == "crash":
            os._exit(rule.exit_code)


def corrupt_payload(site: str, data: bytes) -> bytes:
    """Apply any matching ``corrupt-cache`` rules to ``data`` (the
    serialized cache entry about to hit disk); returns the possibly
    mangled bytes."""
    current = plan()
    if current is None:
        return data
    for rule in current.rules:
        if rule.kind != "corrupt-cache":
            continue
        if not current.should_fire(rule, site):
            continue
        if rule.mode == "truncate":
            data = data[: max(1, len(data) // 2)]
        else:
            data = _flip_digit(data)
    return data


def _flip_digit(data: bytes) -> bytes:
    """Perturb the first decimal digit after the first line (a cache
    entry's header line, whose first digit is the format version) so
    the JSON still parses but the payload checksum no longer matches."""
    for i in range(data.find(b"\n") + 1, len(data)):
        byte = data[i]
        if 0x30 <= byte <= 0x39:  # '0'..'9'
            flipped = 0x30 + ((byte - 0x30 + 1) % 10)
            return data[:i] + bytes((flipped,)) + data[i + 1 :]
    return data + b" "
