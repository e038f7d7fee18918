"""Fault-intensity sweep: H3→H2 fallback under UDP blackholing.

The paper's applicability question has a flip side the testbed can ask
directly: what happens to H3's advantage when QUIC stops working?  UDP
blocking is the dominant real-world H3 failure mode (enterprise
middleboxes and firewalls drop UDP/443 wholesale), and Chrome's answer
is Alt-Svc demotion — fall back to H2 over TCP.

This sweep reproduces that story end to end: for each intensity *f*, a
fraction *f* of hosts (chosen by a stable hash, so the sets are nested
across intensities) has its UDP blackholed.  The browser's recovery
stack — QUIC connect timeout, Alt-Svc demotion, re-dispatch over TCP —
keeps every page load completing, but each fallback costs a wasted
connect timeout and surrenders H3's 1-RTT handshake edge.  The headline
curve: fallback rate rises monotonically with intensity while the mean
PLT reduction (H2 − H3) shrinks and then inverts — blocked-QUIC "H3"
visits are strictly worse than native H2, because they pay the probe
timeout *and then* run over TCP anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.faults.presets import udp_blackhole_profile
from repro.measurement.campaign import CampaignConfig
from repro.measurement.executor import MultiCampaignPlan, execute

#: Default fault intensities (fraction of hosts with UDP blackholed).
DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class FallbackSweepPoint:
    """One intensity of the fallback sweep."""

    #: Fraction of hosts whose UDP is blackholed.
    intensity: float
    #: Fraction of H3-capable fetches (in the H3-enabled mode) that were
    #: NOT served over H3 — i.e. fell back to TCP.
    fallback_rate: float
    #: Mean PLT_H2 − PLT_H3 across paired visits (positive ⇒ H3 wins).
    mean_plt_reduction_ms: float
    #: Paired visits where fault recovery degraded either mode.
    degraded_visits: int
    #: Visits that failed outright (graceful-degradation records).
    failed_visits: int
    #: Paired visits measured at this intensity.
    paired_visits: int


def fallback_sweep(
    plan: MultiCampaignPlan,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    seed: int = 0,
    campaign_config: CampaignConfig | None = None,
) -> list[FallbackSweepPoint]:
    """Run the fig-fallback experiment: one campaign per intensity.

    ``plan`` gives the run shape and no configs.  All intensities share
    its worker pool (each campaign's visits are just more independent
    shards) and the same seed, so the only thing that differs between
    points is the fault profile.  Host targeting uses one salt across
    intensities, making the blackholed sets nested — which is what
    guarantees the fallback rate is monotone in the intensity rather
    than merely trending upward.
    """
    base = campaign_config or CampaignConfig()
    configs = {
        ("faults", intensity): replace(
            base,
            seed=seed,
            fault_profile=(
                udp_blackhole_profile(intensity) if intensity > 0.0 else None
            ),
        )
        for intensity in intensities
    }
    results = execute(replace(plan, configs=configs))
    points: list[FallbackSweepPoint] = []
    for intensity in intensities:
        result = results[("faults", intensity)]
        eligible = 0
        fell_back = 0
        for entry in result.entries("h3-enabled"):
            host_spec = plan.universe.hosts.get(entry.host)
            if host_spec is None or not host_spec.supports_h3:
                continue
            eligible += 1
            if entry.protocol != "h3":
                fell_back += 1
        reductions = [pv.plt_reduction_ms for pv in result.paired_visits]
        points.append(
            FallbackSweepPoint(
                intensity=intensity,
                fallback_rate=fell_back / eligible if eligible else 0.0,
                mean_plt_reduction_ms=(
                    sum(reductions) / len(reductions) if reductions else 0.0
                ),
                degraded_visits=len(result.degraded_visits()),
                failed_visits=len(result.failures),
                paired_visits=len(result.paired_visits),
            )
        )
    return points


def fallback_rates_are_monotone(points: Sequence[FallbackSweepPoint]) -> bool:
    """The sweep's headline check: fallback rate never decreases with
    intensity (nested host targeting makes this exact, not statistical)."""
    ordered = sorted(points, key=lambda p: p.intensity)
    return all(
        earlier.fallback_rate <= later.fallback_rate
        for earlier, later in zip(ordered, ordered[1:])
    )


def edge_inverts(points: Sequence[FallbackSweepPoint]) -> bool:
    """Whether H3's PLT edge flips negative at full blackholing."""
    ordered = sorted(points, key=lambda p: p.intensity)
    return bool(ordered) and ordered[-1].mean_plt_reduction_ms < 0.0
