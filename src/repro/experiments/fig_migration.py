"""Migration sweep — QUIC migration vs TCP reconnect across topologies.

Not a figure from the paper: this is the testbed extension the proxy
and migration subsystems enable.  It crosses path topology (direct,
CONNECT tunnel, MASQUE relay) with a mid-visit client address change
and shows (a) QUIC connections migrating where TCP must reconnect,
(b) the CONNECT tunnel erasing that edge entirely — its TCP
termination downgrades the H3 lane to H2, so both lanes reconnect —
and (c) the MASQUE relay preserving it end-to-end.
"""

from __future__ import annotations

from repro.core.migration import (
    tunnel_downgrades_h3,
    tunnel_erases_migration_edge,
)
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    fmt,
    format_table,
    pct,
    verdict,
)

EXPERIMENT_ID = "fig-migration"
TITLE = "QUIC migration vs TCP reconnect across proxy topologies"


def run(ctx: ExperimentContext) -> ExperimentResult:
    points = ctx.study.fig_migration(
        ctx.param("topologies"), ctx.param("fault_kinds")
    )
    rows = [
        (
            p.topology,
            p.fault,
            fmt(p.h2_mean_plt_ms),
            fmt(p.h3_mean_plt_ms),
            fmt(p.mean_plt_reduction_ms),
            p.quic_migrations,
            p.migration_reconnects,
            p.proxy_h3_downgrades,
            pct(p.h3_share),
            p.paired_visits,
        )
        for p in points
    ]
    lines = format_table(
        (
            "topology",
            "fault",
            "H2 PLT (ms)",
            "H3 PLT (ms)",
            "reduction (ms)",
            "migrated",
            "reconnected",
            "downgraded",
            "H3 share",
            "pairs",
        ),
        rows,
    )
    erased = tunnel_erases_migration_edge(points)
    downgraded = tunnel_downgrades_h3(points)
    lines.append(
        f"  connect-tunnel erases the migration edge: {erased}; "
        f"connect-tunnel downgrades all H3: {downgraded}"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "cells": {
                f"{p.topology}/{p.fault}": {
                    "h2_mean_plt_ms": p.h2_mean_plt_ms,
                    "h3_mean_plt_ms": p.h3_mean_plt_ms,
                    "mean_plt_reduction_ms": p.mean_plt_reduction_ms,
                    "quic_migrations": p.quic_migrations,
                    "migration_reconnects": p.migration_reconnects,
                    "proxy_h3_downgrades": p.proxy_h3_downgrades,
                    "h3_share": p.h3_share,
                    "degraded_visits": p.degraded_visits,
                    "failed_visits": p.failed_visits,
                    "paired_visits": p.paired_visits,
                }
                for p in points
            },
            "tunnel_erases_migration_edge": erased,
            "tunnel_downgrades_h3": downgraded,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig-migration.tunnel_erases_migration_edge", "Extension: under a "
              "migration fault a CONNECT tunnel records no QUIC migration, a MASQUE "
              "relay at least one", verdict("tunnel_erases_migration_edge")),
        Shape("fig-migration.tunnel_downgrades_h3", "Extension: every CONNECT-tunnel "
              "cell serves no H3 and records H3 downgrades",
              verdict("tunnel_downgrades_h3")),
    ),
)
