"""Measurement harness: probes, vantage points, campaigns.

Reproduces the paper's collection protocol (Section III-B): three
CloudLab vantage points × three probes, each probe visiting every
target page with H2 and H3 through separate browser instances, visiting
twice so the second (cache-warm) visit is measured, terminating
connections and clearing caches between pages — plus the
consecutive-visit mode (Section VI-D) where session tickets survive
page transitions.

The single entry point for running measurements is
:func:`~repro.measurement.executor.execute` with a plan
(:class:`CampaignPlan`, :class:`MultiCampaignPlan` or
:class:`ConsecutivePlan`).
"""

from repro.measurement.campaign import (
    CampaignConfig,
    CampaignResult,
    PairedVisit,
    SimConfig,
    TelemetryConfig,
)
from repro.measurement.consecutive import ConsecutiveRun
from repro.measurement.executor import (
    CampaignPlan,
    ConsecutivePlan,
    MultiCampaignPlan,
    PageSource,
    execute,
)
from repro.measurement.farm import ProbeNetProfile, ServerFarm
from repro.measurement.outcome import VisitFailure, VisitOutcome
from repro.measurement.parallel import (
    derive_seed,
    measure_paired_visit,
    measure_visit_outcome,
)
from repro.measurement.probe import Probe
from repro.measurement.report import (
    CampaignReport,
    ModeSummary,
    campaign_report,
    summary_report,
)
from repro.measurement.summary import (
    CampaignSummary,
    FixedGridHistogram,
    ModeFold,
)
from repro.measurement.vantage import (
    VantagePoint,
    default_vantage_points,
    global_vantage_points,
)

__all__ = [
    "CampaignConfig",
    "CampaignPlan",
    "CampaignReport",
    "CampaignResult",
    "CampaignSummary",
    "ConsecutivePlan",
    "ConsecutiveRun",
    "FixedGridHistogram",
    "ModeFold",
    "ModeSummary",
    "MultiCampaignPlan",
    "PageSource",
    "PairedVisit",
    "Probe",
    "ProbeNetProfile",
    "ServerFarm",
    "SimConfig",
    "TelemetryConfig",
    "VantagePoint",
    "VisitFailure",
    "VisitOutcome",
    "campaign_report",
    "default_vantage_points",
    "derive_seed",
    "execute",
    "global_vantage_points",
    "measure_paired_visit",
    "measure_visit_outcome",
    "summary_report",
]
