"""Flash-crowd comparison — a tier hierarchy absorbs popularity skew.

Not a figure from the paper: the capacity-planning scenario the cache
hierarchy enables.  A popularity-skewed burst hits a deliberately small
edge cache.  Flat, the edge thrashes and every miss goes to the origin;
backed by a large regional tier, the same edge refills from one tier
over (25 ms instead of 60 ms) and the origin barely notices.  The
structural claims: the hierarchy cell ships fewer origin bytes, loads
faster in both modes, and records actual regional-tier hits.
"""

from __future__ import annotations

from repro.core.cdn_scenarios import hierarchy_absorbs_flash_crowd
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

EXPERIMENT_ID = "fig-flash-crowd"
TITLE = "Flat cache vs tier hierarchy under a flash crowd"


def run(ctx: ExperimentContext) -> ExperimentResult:
    points = ctx.study.fig_flash_crowd()
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
            "topology",
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
    absorbed = hierarchy_absorbs_flash_crowd(points)
    lines.append(f"  hierarchy absorbs the flash crowd: {absorbed}")
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
            "hierarchy_absorbs_flash_crowd": absorbed,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig-flash-crowd.hierarchy_absorbs_flash_crowd", "Extension: a regional "
              "tier cuts origin bytes and both modes' PLT, with regional hits",
              verdict("hierarchy_absorbs_flash_crowd")),
    ),
)
