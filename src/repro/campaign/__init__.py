"""Campaign layer: declare a parameter product, run it incrementally,
report on it.

Every TOM evaluation is a sweep — workload x configuration x policy x
seed — and at benchmark-suite scale those sweeps have to be declared,
cached, resumed, and compared systematically rather than scripted ad
hoc. This package is that layer, sitting above the supervised executor
(:mod:`repro.core.supervisor`) and the lockstep grid engine
(:mod:`repro.core.gridrun`):

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, a small
  declaration (TOML/JSON/dict) of the parameter product plus pinning
  and exclusion rules, expanded deterministically into
  content-addressed :class:`CampaignPoint` descriptors;
* :mod:`repro.campaign.driver` — :class:`CampaignDriver`, which skips
  points already answered by the persistent result cache or a prior
  run's JSONL manifest, fans the remainder out through the supervised
  job engine, streams the manifest as outcomes land, and rolls results
  up into per-campaign summary tables.

See ``docs/CAMPAIGNS.md`` for the spec format and skip/resume
semantics.
"""

from .driver import (
    CampaignDriver,
    CampaignReport,
    CampaignStatus,
    default_manifest_path,
    run_campaign,
)
from .spec import CampaignConfig, CampaignPoint, CampaignSpec, load_spec

__all__ = [
    "CampaignConfig",
    "CampaignDriver",
    "CampaignPoint",
    "CampaignReport",
    "CampaignSpec",
    "CampaignStatus",
    "default_manifest_path",
    "load_spec",
    "run_campaign",
]
