"""Migration sweep: QUIC connection migration vs TCP reconnect, by topology.

QUIC's connection IDs decouple a connection from its 4-tuple: when the
client's address changes mid-visit (a NAT rebinding, a Wi-Fi→cellular
handover), the connection *migrates* — the endpoints keep their state
and probe the new path — while TCP must tear down and reconnect, paying
a fresh handshake and losing in-flight requests.  This experiment asks
how much of H3's advantage that buys, and how path topology mediates
it:

* **direct** — the baseline client↔edge path.
* **connect-tunnel** — a CONNECT-style HTTP/2 proxy that terminates
  TCP.  QUIC cannot pass through, so the browser's "H3" lane downgrades
  to H2 at the proxy and *both* lanes reconnect on migration: the
  topology erases H3's migration edge entirely.
* **masque-relay** — a MASQUE-style UDP relay that forwards QUIC
  end-to-end.  H3 keeps its connection IDs and migrates; only the H2
  lane reconnects.

For each (topology, fault) cell one campaign runs with identical seeds,
so within a topology the fault profile is the only difference, and
within a fault the topology is.  The headline comparison: under a
migration fault only the MASQUE relay (and the direct path) record
QUIC migrations, while the CONNECT tunnel records none — every lane it
carries is TCP, so it both erases H3's migration story and zeroes the
H3 share outright.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.faults.presets import migration_profile
from repro.measurement.campaign import CampaignConfig
from repro.measurement.executor import MultiCampaignPlan, execute
from repro.netsim.proxy import PROXY_MODELS, ProxyConfig

#: Path topologies swept by default: direct plus both proxy models.
DEFAULT_TOPOLOGIES = ("direct",) + PROXY_MODELS

#: Migration fault kinds swept by default ("none" = fault-free control).
DEFAULT_FAULTS = ("none", "nat_rebind")


@dataclass(frozen=True)
class MigrationPoint:
    """One (topology, fault) cell of the migration sweep."""

    #: ``"direct"``, ``"connect-tunnel"`` or ``"masque-relay"``.
    topology: str
    #: ``"none"``, ``"nat_rebind"`` or ``"wifi_to_cellular"``.
    fault: str
    #: Mean PLT per mode across paired visits.
    h2_mean_plt_ms: float
    h3_mean_plt_ms: float
    #: Mean PLT_H2 − PLT_H3 (positive ⇒ H3 wins).
    mean_plt_reduction_ms: float
    #: QUIC connections that survived the address change by migrating.
    quic_migrations: int
    #: TCP connections torn down and re-established instead.
    migration_reconnects: int
    #: H3 fetches downgraded at a CONNECT tunnel.
    proxy_h3_downgrades: int
    #: Fraction of H3-eligible fetches actually served over H3
    #: (in the H3-enabled mode).
    h3_share: float
    #: Paired visits where fault recovery degraded either mode.
    degraded_visits: int
    #: Visits that failed outright.
    failed_visits: int
    #: Paired visits measured in this cell.
    paired_visits: int


def _proxy_for(topology: str) -> ProxyConfig | None:
    if topology == "direct":
        return None
    return ProxyConfig(model=topology)


def migration_sweep(
    plan: MultiCampaignPlan,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    fault_kinds: Sequence[str] = DEFAULT_FAULTS,
    seed: int = 0,
    campaign_config: CampaignConfig | None = None,
) -> list[MigrationPoint]:
    """Run the fig-migration experiment: one campaign per cell.

    ``plan`` gives the run shape and no configs.  All cells share its
    worker pool and one seed; only the proxy config and fault profile
    vary.  Counters are forced on — the migration verdict (migrated vs
    reconnected) lives in the pool's counters, not in PLT alone.
    """
    base = campaign_config or CampaignConfig()
    configs = {}
    for topology in topologies:
        if topology not in DEFAULT_TOPOLOGIES:
            raise ValueError(
                f"unknown topology {topology!r}; known: {DEFAULT_TOPOLOGIES}"
            )
        for kind in fault_kinds:
            configs[(topology, kind)] = replace(
                base,
                seed=seed,
                collect_counters=True,
                proxy=_proxy_for(topology),
                fault_profile=(
                    migration_profile(kind) if kind != "none" else None
                ),
            )
    results = execute(replace(plan, configs=configs))
    points: list[MigrationPoint] = []
    for (topology, kind), result in (
        ((t, k), results[(t, k)]) for t in topologies for k in fault_kinds
    ):
        eligible = 0
        over_h3 = 0
        for entry in result.entries("h3-enabled"):
            host_spec = plan.universe.hosts.get(entry.host)
            if host_spec is None or not host_spec.supports_h3:
                continue
            eligible += 1
            if entry.protocol == "h3":
                over_h3 += 1
        counters = result.counter_totals()
        h2_plts = [pv.h2.plt_ms for pv in result.paired_visits]
        h3_plts = [pv.h3.plt_ms for pv in result.paired_visits]
        reductions = [pv.plt_reduction_ms for pv in result.paired_visits]
        points.append(
            MigrationPoint(
                topology=topology,
                fault=kind,
                h2_mean_plt_ms=sum(h2_plts) / len(h2_plts) if h2_plts else 0.0,
                h3_mean_plt_ms=sum(h3_plts) / len(h3_plts) if h3_plts else 0.0,
                mean_plt_reduction_ms=(
                    sum(reductions) / len(reductions) if reductions else 0.0
                ),
                quic_migrations=int(counters.counter("pool.quic_migrations")),
                migration_reconnects=int(
                    counters.counter("pool.migration_reconnects")
                ),
                proxy_h3_downgrades=int(
                    counters.counter("pool.proxy_h3_downgrades")
                ),
                h3_share=over_h3 / eligible if eligible else 0.0,
                degraded_visits=len(result.degraded_visits()),
                failed_visits=len(result.failures),
                paired_visits=len(result.paired_visits),
            )
        )
    return points


def _cell(points: Sequence[MigrationPoint], topology: str, fault: str):
    for point in points:
        if point.topology == topology and point.fault == fault:
            return point
    return None


def tunnel_erases_migration_edge(points: Sequence[MigrationPoint]) -> bool:
    """The headline check: a CONNECT tunnel records zero QUIC
    migrations under a migration fault (every lane is TCP), while the
    MASQUE relay records at least one."""
    tunnel = [
        p for p in points
        if p.topology == "connect-tunnel" and p.fault != "none"
    ]
    relay = [
        p for p in points
        if p.topology == "masque-relay" and p.fault != "none"
    ]
    if not tunnel or not relay:
        return False
    return all(p.quic_migrations == 0 for p in tunnel) and all(
        p.quic_migrations > 0 for p in relay
    )


def tunnel_downgrades_h3(points: Sequence[MigrationPoint]) -> bool:
    """Every connect-tunnel cell serves no H3 at all (the proxy
    terminates TCP, so the H3 lane runs H2 end to end)."""
    cells = [p for p in points if p.topology == "connect-tunnel"]
    return bool(cells) and all(
        p.h3_share == 0.0 and p.proxy_h3_downgrades > 0 for p in cells
    )
