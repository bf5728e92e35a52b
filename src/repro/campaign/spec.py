"""Campaign declarations: a parameter product with pinning and
exclusion rules, expanded deterministically into content-addressed
points.

A campaign is declared as data — a TOML (or JSON) file, or a plain
dict — naming the four axes of the product (workloads, policies,
scales, seeds) plus any number of named system configurations, each a
set of dotted-path overrides on the paper's NDP configuration::

    name = "fig8-small"

    [axes]
    workloads = "suite"                  # or an explicit list
    policies = ["baseline", "no-ctrl+bmap", "no-ctrl+tmap",
                "ctrl+bmap", "ctrl+tmap"]
    scales = ["SMALL"]
    seeds = [0]

    [[configs]]
    name = "default"

    [[configs]]
    name = "2x-link"
    [configs.overrides]
    "links.gpu_stack_bandwidth_gbps" = 160.0

    [[exclude]]                          # drop matching points
    workload = "RD"
    policy = "no-ctrl+bmap"

    [pin]                                # force an axis to one value
    scale = "SMALL"

:meth:`CampaignSpec.expand` is a pure function of the spec: the same
declaration always yields the same points, in the same order, with the
same ``point_id``s (a SHA-256 over the point's identity including the
resolved configuration — but *not* the code version, so campaign
identity survives code changes; the result cache's own keys handle
invalidation). That determinism is what makes skip-completed, re-runs
and cache-based status trustworthy.

TOML is parsed with the standard library's :mod:`tomllib`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from ..config import SystemConfig, ndp_config
from ..core.policies import POLICIES_BY_LABEL
from ..errors import ConfigError
from ..trace.generator import TraceScale
from ..workloads.suite import SUITE_ORDER

#: The axes a pin or exclusion clause may name.
_AXES = ("workload", "policy", "scale", "seed", "config")


def apply_overrides(
    config: SystemConfig, overrides: Mapping[str, object]
) -> SystemConfig:
    """Apply dotted-path field overrides (``"links.gpu_stack_bandwidth_gbps"
    = 160.0``) to a frozen :class:`SystemConfig`, validating the result.
    Keys are applied in sorted order so the outcome never depends on
    mapping iteration order."""
    for path in sorted(overrides):
        config = _replace_path(config, path, path.split("."), overrides[path])
    return config.validate()


def _replace_path(obj, full_path: str, parts: Sequence[str], value):
    name = parts[0]
    known = {f.name for f in dataclasses.fields(obj)}
    if name not in known:
        raise ConfigError(
            f"override {full_path!r}: {type(obj).__name__} has no field "
            f"{name!r} (known: {', '.join(sorted(known))})"
        )
    if len(parts) == 1:
        return dataclasses.replace(obj, **{name: value})
    child = _replace_path(getattr(obj, name), full_path, parts[1:], value)
    return dataclasses.replace(obj, **{name: child})


@dataclass(frozen=True)
class CampaignConfig:
    """One named system configuration of a campaign: the paper's NDP
    configuration with ``overrides`` applied. Stored as a sorted tuple
    of ``(dotted_path, value)`` pairs so the spec stays hashable."""

    name: str = "default"
    overrides: Tuple[Tuple[str, object], ...] = ()

    def resolve(self) -> SystemConfig:
        return apply_overrides(ndp_config(), dict(self.overrides))


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded point of the product. ``point_id`` is the content
    address the driver's report keys results on."""

    point_id: str
    workload: str
    policy: str
    scale: TraceScale
    seed: int
    config: str

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.policy} @{self.scale.name} "
            f"seed={self.seed} config={self.config}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The declaration: axes, configs, pins, exclusions."""

    name: str
    workloads: Tuple[str, ...]
    policies: Tuple[str, ...]
    scales: Tuple[str, ...] = ("SMALL",)
    seeds: Tuple[int, ...] = (0,)
    configs: Tuple[CampaignConfig, ...] = (CampaignConfig(),)
    exclude: Tuple[Tuple[Tuple[str, object], ...], ...] = ()
    pin: Tuple[Tuple[str, object], ...] = ()

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise ConfigError("campaign spec must be a table/object")
        axes = data.get("axes", data)
        workloads = axes.get("workloads")
        if workloads == "suite":
            workloads = list(SUITE_ORDER)
        policies = axes.get("policies")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError("campaign spec needs a string 'name'")
        if not workloads or not isinstance(workloads, (list, tuple)):
            raise ConfigError(
                "campaign spec needs a 'workloads' list (or the string "
                "'suite' for the full Table 2 suite)"
            )
        if not policies or not isinstance(policies, (list, tuple)):
            raise ConfigError("campaign spec needs a 'policies' list")
        scales = axes.get("scales", ["SMALL"])
        seeds = axes.get("seeds", [0])
        configs: List[CampaignConfig] = []
        for raw in data.get("configs", [{"name": "default"}]):
            cfg_name = raw.get("name")
            if not cfg_name or not isinstance(cfg_name, str):
                raise ConfigError("every [[configs]] entry needs a 'name'")
            overrides = raw.get("overrides", {})
            if not isinstance(overrides, Mapping):
                raise ConfigError(
                    f"config {cfg_name!r}: 'overrides' must be a table"
                )
            configs.append(
                CampaignConfig(
                    name=cfg_name,
                    overrides=tuple(
                        (k, _freeze(overrides[k])) for k in sorted(overrides)
                    ),
                )
            )
        exclude = tuple(
            tuple((k, _freeze(clause[k])) for k in sorted(clause))
            for clause in data.get("exclude", [])
        )
        pin_raw = data.get("pin", {})
        pin = tuple((k, _freeze(pin_raw[k])) for k in sorted(pin_raw))
        spec = cls(
            name=name,
            workloads=tuple(workloads),
            policies=tuple(policies),
            scales=tuple(scales),
            seeds=tuple(int(s) for s in seeds),
            configs=tuple(configs),
            exclude=exclude,
            pin=pin,
        )
        spec.validate()
        return spec

    def validate(self) -> "CampaignSpec":
        labels = POLICIES_BY_LABEL
        for workload in self.workloads:
            if workload not in SUITE_ORDER:
                raise ConfigError(
                    f"unknown workload {workload!r} (suite: "
                    f"{', '.join(SUITE_ORDER)})"
                )
        for policy in self.policies:
            if policy not in labels:
                raise ConfigError(
                    f"unknown policy {policy!r} (known: "
                    f"{', '.join(sorted(labels))})"
                )
        for scale in self.scales:
            if scale not in TraceScale.__members__:
                raise ConfigError(
                    f"unknown scale {scale!r} (known: "
                    f"{', '.join(s.name for s in TraceScale)})"
                )
        seen = set()
        for config in self.configs:
            if config.name in seen:
                raise ConfigError(f"duplicate config name {config.name!r}")
            seen.add(config.name)
            config.resolve()  # raises ConfigError on a bad override
        for key, _ in self.pin:
            if key not in _AXES:
                raise ConfigError(
                    f"pin axis {key!r} unknown (axes: {', '.join(_AXES)})"
                )
        for clause in self.exclude:
            for key, _ in clause:
                if key not in _AXES:
                    raise ConfigError(
                        f"exclude axis {key!r} unknown (axes: "
                        f"{', '.join(_AXES)})"
                    )
        return self

    # -- identity ------------------------------------------------------

    def _canonical(self) -> Dict:
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "configs": [
                {
                    "name": c.name,
                    "config": dataclasses.asdict(c.resolve()),
                }
                for c in self.configs
            ],
            "exclude": [list(map(list, clause)) for clause in self.exclude],
            "pin": [list(p) for p in self.pin],
        }

    def fingerprint(self) -> str:
        """Identity of the campaign: the expanded product would change
        iff this changes. Code-version independent by design."""
        canonical = json.dumps(
            self._canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- expansion -----------------------------------------------------

    def _pinned_axes(self) -> Tuple[List[str], List[str], List[str], List[int], List[str]]:
        pin = dict(self.pin)
        workloads = [str(pin["workload"])] if "workload" in pin else list(self.workloads)
        policies = [str(pin["policy"])] if "policy" in pin else list(self.policies)
        scales = [str(pin["scale"])] if "scale" in pin else list(self.scales)
        seeds = [int(pin["seed"])] if "seed" in pin else list(self.seeds)  # type: ignore[arg-type]
        config_names = [c.name for c in self.configs]
        if "config" in pin:
            config_names = [str(pin["config"])]
            if config_names[0] not in {c.name for c in self.configs}:
                raise ConfigError(
                    f"pinned config {config_names[0]!r} is not declared"
                )
        return workloads, policies, scales, seeds, config_names

    def _excluded(self, values: Mapping[str, object]) -> bool:
        for clause in self.exclude:
            if all(values.get(key) == value for key, value in clause):
                return True
        return False

    def expand(self) -> List[CampaignPoint]:
        """The deterministic product: configs x scales x seeds x
        workloads x policies (outer to inner), minus exclusions —
        grouping points that can share a trace (same workload, scale,
        seed, config) adjacently."""
        self.validate()
        workloads, policies, scales, seeds, config_names = self._pinned_axes()
        config_by_name = {c.name: c for c in self.configs}
        points: List[CampaignPoint] = []
        for config_name, scale_name, seed, workload, policy in itertools.product(
            config_names, scales, seeds, workloads, policies
        ):
            values = {
                "workload": workload,
                "policy": policy,
                "scale": scale_name,
                "seed": seed,
                "config": config_name,
            }
            if self._excluded(values):
                continue
            resolved = config_by_name[config_name].resolve()
            points.append(
                CampaignPoint(
                    point_id=point_id(
                        workload, policy, scale_name, seed, config_name, resolved
                    ),
                    workload=workload,
                    policy=policy,
                    scale=TraceScale[scale_name],
                    seed=seed,
                    config=config_name,
                )
            )
        if not points:
            raise ConfigError(
                f"campaign {self.name!r} expands to zero points "
                "(exclusions removed everything?)"
            )
        return points


def point_id(
    workload: str,
    policy: str,
    scale_name: str,
    seed: int,
    config_name: str,
    resolved_config: SystemConfig,
) -> str:
    """Content address of one campaign point (spec-stable: independent
    of the code version — the result cache's keys carry that)."""
    payload = {
        "workload": workload,
        "policy": policy,
        "scale": scale_name,
        "seed": seed,
        "config": config_name,
        "system": dataclasses.asdict(resolved_config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _freeze(value):
    """Lists from parsed TOML/JSON become tuples so specs stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


# -- file loading -----------------------------------------------------------


def load_spec(path) -> CampaignSpec:
    """Load a campaign spec from a TOML or JSON file. ``.json`` parses
    as JSON; anything else parses as TOML."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigError(f"cannot read campaign spec {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigError(f"bad JSON in {path}: {error}") from None
    else:
        data = parse_toml(text, source=str(path))
    return CampaignSpec.from_dict(data)


def parse_toml(text: str, source: str = "<campaign spec>") -> Dict:
    """Parse TOML with :mod:`tomllib`; malformed input raises
    :class:`~repro.errors.ConfigError` naming ``source``."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"bad TOML in {source}: {error}") from None
