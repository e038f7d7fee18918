"""CDN hierarchy/economics sweeps: amplification, miss storms, flash crowds.

Three provider-side scenarios built on the tiered cache hierarchy and
compression negotiation (:mod:`repro.cdn.hierarchy` /
:mod:`repro.cdn.compression`), each a structural claim about CDN
economics rather than a client-side timing figure:

* **amplification** — the Lin et al. bandwidth-amplification shape: a
  client fleet that demands ``Accept-Encoding: identity`` for content
  the origin stores Brotli-compressed makes the edge decompress on
  egress, so the provider ships ~3.3x the bytes it ingested.  Swept
  over the fraction of identity-demanding clients; the egress/ingress
  factor must exceed 1 and grow monotonically with that fraction.
* **miss storm** — tier capacities shrink until nothing sticks: origin
  offload collapses and PLT degrades tier by tier as requests fall
  through ever more of the chain.
* **flash crowd** — a popularity-skewed burst against a small edge.  A
  flat cache thrashes straight to the origin; an edge→regional
  hierarchy absorbs the skew in the regional tier, cutting both origin
  bytes and PLT.

Every cell runs with identical seeds, so within a sweep the swept knob
is the only difference — the same discipline as
:mod:`repro.core.migration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.cdn.compression import CompressionConfig
from repro.cdn.economics import EconomicsLedger
from repro.cdn.hierarchy import (
    DEFAULT_HIERARCHY,
    HierarchyConfig,
    TierSpec,
)
from repro.measurement.campaign import CampaignConfig
from repro.measurement.executor import MultiCampaignPlan, execute

#: Identity-demand ratios swept by the amplification experiment.
DEFAULT_IDENTITY_RATIOS = (0.0, 0.5, 1.0)

#: Capacity squeeze levels for the miss-storm experiment, outermost
#: tier last.  ``warm`` is the default preset (everything fits);
#: ``squeezed`` starves the edge but lets the regional tier absorb;
#: ``storm`` starves both, so requests fall through to the origin.
MISS_STORM_LEVELS: dict[str, HierarchyConfig] = {
    "warm": DEFAULT_HIERARCHY,
    "squeezed": HierarchyConfig(
        tiers=(
            TierSpec(name="edge", capacity_bytes=32 * 1024, fetch_ms=25.0),
            TierSpec(
                name="regional",
                capacity_bytes=4 * 1024 * 1024 * 1024,
                fetch_ms=40.0,
            ),
        )
    ),
    "storm": HierarchyConfig(
        tiers=(
            TierSpec(name="edge", capacity_bytes=32 * 1024, fetch_ms=25.0),
            TierSpec(name="regional", capacity_bytes=48 * 1024, fetch_ms=40.0),
        )
    ),
}

#: Flash-crowd cells: a small flat edge vs the same edge backed by a
#: large regional tier.  A one-tier chain *is* a flat cache (the tier's
#: ``fetch_ms`` is the legacy origin-fetch penalty), which keeps the
#: two cells comparable knob for knob.
FLASH_CROWD_TOPOLOGIES: dict[str, HierarchyConfig] = {
    "flat": HierarchyConfig(
        tiers=(
            TierSpec(name="edge", capacity_bytes=256 * 1024, fetch_ms=60.0),
        )
    ),
    "hierarchy": HierarchyConfig(
        tiers=(
            TierSpec(name="edge", capacity_bytes=256 * 1024, fetch_ms=25.0),
            TierSpec(
                name="regional",
                capacity_bytes=4 * 1024 * 1024 * 1024,
                fetch_ms=40.0,
            ),
        )
    ),
}


@dataclass(frozen=True)
class EconomicsPoint:
    """One cell of a CDN economics sweep."""

    #: The swept knob's value for this cell (ratio name or level name).
    label: str
    #: Provider-side byte ledger rebuilt from the cell's counters.
    egress_bytes: int
    origin_bytes: int
    cache_served_bytes: int
    transfer_bytes: int
    conversions: int
    misses: int
    #: Tier name → chain hits (``cache.hits.<tier>`` counters).
    tier_hits: dict[str, int]
    #: Egress/ingress amplification factor (0.0 when nothing ingressed).
    amplification: float
    #: Fraction of egress the origin never saw.
    offload_ratio: float
    #: Mean PLT per protocol mode across paired visits.
    h2_mean_plt_ms: float
    h3_mean_plt_ms: float
    #: Paired visits measured in this cell.
    paired_visits: int


def _point_from_result(label: str, result, tier_names: Sequence[str]) -> EconomicsPoint:
    counters = result.counter_totals()
    ledger = EconomicsLedger.from_counters(counters.counter)
    tier_hits = {
        name: int(counters.counter(f"cache.hits.{name}"))
        for name in tier_names
        if counters.counter(f"cache.hits.{name}")
    }
    h2_plts = [pv.h2.plt_ms for pv in result.paired_visits]
    h3_plts = [pv.h3.plt_ms for pv in result.paired_visits]
    return EconomicsPoint(
        label=label,
        egress_bytes=ledger.egress_bytes,
        origin_bytes=ledger.origin_bytes,
        cache_served_bytes=ledger.cache_served_bytes,
        transfer_bytes=ledger.transfer_bytes,
        conversions=ledger.conversions,
        misses=ledger.misses,
        tier_hits=tier_hits,
        amplification=ledger.amplification,
        offload_ratio=ledger.offload_ratio,
        h2_mean_plt_ms=sum(h2_plts) / len(h2_plts) if h2_plts else 0.0,
        h3_mean_plt_ms=sum(h3_plts) / len(h3_plts) if h3_plts else 0.0,
        paired_visits=len(result.paired_visits),
    )


def amplification_sweep(
    plan: MultiCampaignPlan,
    identity_ratios: Sequence[float] = DEFAULT_IDENTITY_RATIOS,
    hierarchy: HierarchyConfig = DEFAULT_HIERARCHY,
    seed: int = 0,
    campaign_config: CampaignConfig | None = None,
) -> list[EconomicsPoint]:
    """One campaign per identity-demand ratio, compression on.

    ``plan`` gives the run shape and no configs.  The identity-demand
    decision is hash-derived per URL with *nested* accept sets across
    ratios (a URL that demands identity at ratio r still does at every
    r' > r), so the amplification factor is monotone in the ratio by
    construction — any non-monotonicity is a bookkeeping bug, which is
    exactly what the smoke gate checks.
    """
    base = campaign_config or CampaignConfig()
    configs = {}
    for ratio in identity_ratios:
        configs[f"ratio-{ratio:g}"] = replace(
            base,
            seed=seed,
            collect_counters=True,
            cache_hierarchy=hierarchy,
            compression=CompressionConfig(identity_request_ratio=ratio),
            # Cold caches, single visit: the double-visit protocol warms
            # everything, which zeroes origin ingress in the *measured*
            # visit and leaves the amplification factor undefined.  The
            # attack is an ingress-vs-egress story, so the sweep meters
            # the visit that actually pulls from the origin.
            visits_per_page=1,
            warm_popular=False,
        )
    results = execute(replace(plan, configs=configs))
    tier_names = [tier.name for tier in hierarchy.tiers]
    return [
        _point_from_result(f"ratio-{ratio:g}", results[f"ratio-{ratio:g}"], tier_names)
        for ratio in identity_ratios
    ]


def _hierarchy_sweep(
    plan: MultiCampaignPlan,
    cells: dict[str, HierarchyConfig],
    seed: int,
    campaign_config: CampaignConfig | None,
) -> list[EconomicsPoint]:
    """One campaign per labelled tier chain (no compression)."""
    base = campaign_config or CampaignConfig()
    configs = {
        label: replace(
            base, seed=seed, collect_counters=True, cache_hierarchy=hierarchy
        )
        for label, hierarchy in cells.items()
    }
    results = execute(replace(plan, configs=configs))
    return [
        _point_from_result(
            label, results[label], [tier.name for tier in hierarchy.tiers]
        )
        for label, hierarchy in cells.items()
    ]


def miss_storm_sweep(
    plan: MultiCampaignPlan,
    levels: dict[str, HierarchyConfig] | None = None,
    seed: int = 0,
    campaign_config: CampaignConfig | None = None,
) -> list[EconomicsPoint]:
    """One campaign per capacity-squeeze level (no compression)."""
    return _hierarchy_sweep(
        plan,
        levels if levels is not None else MISS_STORM_LEVELS,
        seed,
        campaign_config,
    )


def flash_crowd_sweep(
    plan: MultiCampaignPlan,
    topologies: dict[str, HierarchyConfig] | None = None,
    seed: int = 0,
    campaign_config: CampaignConfig | None = None,
) -> list[EconomicsPoint]:
    """Flat small edge vs the same edge backed by a regional tier."""
    return _hierarchy_sweep(
        plan,
        topologies if topologies is not None else FLASH_CROWD_TOPOLOGIES,
        seed,
        campaign_config,
    )


# -- structural checks ---------------------------------------------------


def _by_label(points: Sequence[EconomicsPoint]) -> dict[str, EconomicsPoint]:
    return {point.label: point for point in points}


def amplification_exceeds_unity(points: Sequence[EconomicsPoint]) -> bool:
    """Every cell with identity-demanding clients egresses more bytes
    than the origin ingressed (the attack shape)."""
    attacked = [p for p in points if p.label != "ratio-0"]
    return bool(attacked) and all(p.amplification > 1.0 for p in attacked)


def amplification_monotone(points: Sequence[EconomicsPoint]) -> bool:
    """The amplification factor never decreases as the identity-demand
    ratio grows (nested accept sets make this exact, not statistical)."""
    ordered = sorted(points, key=lambda p: float(p.label.split("-", 1)[1]))
    factors = [p.amplification for p in ordered]
    return len(factors) >= 2 and all(
        a <= b + 1e-9 for a, b in zip(factors, factors[1:])
    )


def offload_collapses(points: Sequence[EconomicsPoint]) -> bool:
    """Origin offload collapses as tiers are squeezed.

    Offload never improves level by level and the fully starved chain
    is strictly worse than the warm one.  (The middle level may tie
    with ``warm`` at full offload — the regional tier can absorb the
    entire working set — which is itself part of the story: squeezing
    the edge alone pushes hits one tier out, not to the origin.)
    """
    cells = _by_label(points)
    if not {"warm", "squeezed", "storm"} <= cells.keys():
        return False
    warm, squeezed, storm = (
        cells["warm"].offload_ratio,
        cells["squeezed"].offload_ratio,
        cells["storm"].offload_ratio,
    )
    return warm >= squeezed >= storm and storm < warm


def plt_degrades_tier_by_tier(points: Sequence[EconomicsPoint]) -> bool:
    """Mean PLT worsens monotonically with each squeezed tier, in both
    protocol modes."""
    cells = _by_label(points)
    if not {"warm", "squeezed", "storm"} <= cells.keys():
        return False
    order = (cells["warm"], cells["squeezed"], cells["storm"])
    return all(
        a.h2_mean_plt_ms < b.h2_mean_plt_ms
        and a.h3_mean_plt_ms < b.h3_mean_plt_ms
        for a, b in zip(order, order[1:])
    )


def hierarchy_absorbs_flash_crowd(points: Sequence[EconomicsPoint]) -> bool:
    """The regional tier shields the origin: the hierarchy cell ships
    fewer origin bytes, loads faster, and actually records regional
    hits, while the flat cache thrashes straight through."""
    cells = _by_label(points)
    if not {"flat", "hierarchy"} <= cells.keys():
        return False
    flat, tiered = cells["flat"], cells["hierarchy"]
    return (
        tiered.origin_bytes < flat.origin_bytes
        and tiered.h2_mean_plt_ms < flat.h2_mean_plt_ms
        and tiered.h3_mean_plt_ms < flat.h3_mean_plt_ms
        and tiered.tier_hits.get("regional", 0) > 0
    )
