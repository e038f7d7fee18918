"""Miss-storm sweep — origin offload collapse under tier squeeze.

Not a figure from the paper: a provider-side stress scenario on the
cache hierarchy.  Tier capacities shrink from the default preset
(everything fits) through a starved edge (the regional tier absorbs)
to a fully starved chain (requests fall through to the origin).  The
structural claims: origin offload collapses strictly level by level,
and mean PLT degrades tier by tier in both protocol modes as every
request pays more of the fetch-through chain.
"""

from __future__ import annotations

from repro.core.cdn_scenarios import (
    offload_collapses,
    plt_degrades_tier_by_tier,
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

EXPERIMENT_ID = "fig-miss-storm"
TITLE = "Origin offload collapse under cache-tier squeeze"


def run(ctx: ExperimentContext) -> ExperimentResult:
    points = ctx.study.fig_miss_storm()
    rows = [
        (
            p.label,
            pct(p.offload_ratio),
            p.origin_bytes,
            p.misses,
            ", ".join(f"{t}={n}" for t, n in sorted(p.tier_hits.items()))
            or "-",
            fmt(p.h2_mean_plt_ms),
            fmt(p.h3_mean_plt_ms),
            p.paired_visits,
        )
        for p in points
    ]
    lines = format_table(
        (
            "level",
            "offload",
            "origin (B)",
            "misses",
            "tier hits",
            "H2 PLT (ms)",
            "H3 PLT (ms)",
            "pairs",
        ),
        rows,
    )
    collapses = offload_collapses(points)
    degrades = plt_degrades_tier_by_tier(points)
    lines.append(
        f"  offload collapses level by level: {collapses}; "
        f"PLT degrades tier by tier: {degrades}"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "cells": {
                p.label: {
                    "offload_ratio": p.offload_ratio,
                    "egress_bytes": p.egress_bytes,
                    "origin_bytes": p.origin_bytes,
                    "misses": p.misses,
                    "tier_hits": p.tier_hits,
                    "h2_mean_plt_ms": p.h2_mean_plt_ms,
                    "h3_mean_plt_ms": p.h3_mean_plt_ms,
                    "paired_visits": p.paired_visits,
                }
                for p in points
            },
            "offload_collapses": collapses,
            "plt_degrades_tier_by_tier": degrades,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig-miss-storm.offload_collapses", "Extension: origin offload never "
              "improves as tiers are squeezed, and the starved chain is below warm",
              verdict("offload_collapses")),
        Shape("fig-miss-storm.plt_degrades_tier_by_tier", "Extension: mean H2 and H3 "
              "PLT rise strictly with each squeezed tier",
              verdict("plt_degrades_tier_by_tier")),
    ),
)
