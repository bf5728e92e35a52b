"""Campaign layer: declare a parameter product, run it incrementally,
report on it.

Every TOM evaluation is a sweep — workload x configuration x policy x
seed — and at benchmark-suite scale those sweeps have to be declared,
cached, resumed, and compared systematically rather than scripted ad
hoc. This package is that layer, sitting above the supervised executor
(:mod:`repro.core.supervisor`) and the grid driver
(:mod:`repro.core.gridrun`):

* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, a small
  declaration (TOML/JSON/dict) of the parameter product plus pinning
  and exclusion rules, expanded deterministically into
  content-addressed :class:`CampaignPoint` descriptors;
* :mod:`repro.campaign.driver` — :class:`CampaignDriver`, which hands
  the expanded points to the suite's job planner: points the persistent
  result cache answers are skipped, the remainder fans out through the
  supervised job engine, and results roll up into per-grid summary
  tables.

See ``docs/CAMPAIGNS.md`` for the spec format and skip/re-run
semantics.
"""

from .driver import (
    CampaignDriver,
    CampaignReport,
    CampaignStatus,
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
    "load_spec",
    "run_campaign",
]
