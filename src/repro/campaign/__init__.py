"""repro.campaign: parallel, resumable experiment campaigns.

The paper's evaluation is not one run but a *campaign*: a grid of
(m x P x density x seed) repetitions behind each figure and table.  This
package turns that grid into a first-class object --

* :mod:`~repro.campaign.spec` declares campaigns; every run is keyed by a
  deterministic content hash of its resolved configuration;
* :mod:`~repro.campaign.store` persists results in SQLite with exactly-once
  semantics, so interrupted campaigns resume with zero recomputation;
* :mod:`~repro.campaign.executor` drains a campaign through a process pool
  with retries, per-run timeouts and graceful cancellation;
* :mod:`~repro.campaign.pool` is that pool: the one lease-driven scheduler,
  shared with the simulation service;
* :mod:`~repro.campaign.report` aggregates stored payloads back into the
  paper's tables: Figure 10 and Table 1 are rendered from it alone.
"""

from .executor import CampaignSummary, drain_report, execute_run, run_campaign
from .report import (
    BoundaryGroup,
    CampaignReport,
    campaign_report,
    render_report,
)
from .spec import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    RunSpec,
    campaign_names,
    get_campaign,
)
from .store import RunStore, StoredRun, canonical_payload

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "BoundaryGroup",
    "CampaignReport",
    "CampaignSpec",
    "CampaignSummary",
    "RunSpec",
    "RunStore",
    "StoredRun",
    "campaign_names",
    "campaign_report",
    "canonical_payload",
    "drain_report",
    "execute_run",
    "get_campaign",
    "render_report",
    "run_campaign",
]
