"""Amplification sweep — identity-demanding clients vs a Brotli origin.

Not a figure from the paper: this is the adversarial-economics scenario
the cache hierarchy and compression subsystems enable, after the
bandwidth-amplification attack shape of Lin et al.  The origin stores
compressible content Brotli-encoded; a fraction of clients demands
``Accept-Encoding: identity``, forcing the edge to decompress on
egress.  The provider then ships ~3.3x the bytes it ingested for those
objects — the egress/ingress factor must exceed 1 wherever any client
demands identity, and it must grow monotonically with the demanding
fraction (the per-URL demand sets are nested across ratios).
"""

from __future__ import annotations

from repro.core.cdn_scenarios import (
    amplification_exceeds_unity,
    amplification_monotone,
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

EXPERIMENT_ID = "fig-amplification"
TITLE = "Egress/ingress amplification vs identity-demand ratio"


def run(ctx: ExperimentContext) -> ExperimentResult:
    points = ctx.study.fig_amplification(ctx.param("identity_ratios"))
    rows = [
        (
            p.label,
            p.egress_bytes,
            p.origin_bytes,
            fmt(p.amplification, 2),
            pct(p.offload_ratio),
            p.conversions,
            fmt(p.h2_mean_plt_ms),
            fmt(p.h3_mean_plt_ms),
            p.paired_visits,
        )
        for p in points
    ]
    lines = format_table(
        (
            "cell",
            "egress (B)",
            "origin (B)",
            "amplification",
            "offload",
            "conversions",
            "H2 PLT (ms)",
            "H3 PLT (ms)",
            "pairs",
        ),
        rows,
    )
    exceeds = amplification_exceeds_unity(points)
    monotone = amplification_monotone(points)
    lines.append(
        f"  amplification factor > 1 under attack: {exceeds}; "
        f"monotone in identity-demand ratio: {monotone}"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "cells": {
                p.label: {
                    "egress_bytes": p.egress_bytes,
                    "origin_bytes": p.origin_bytes,
                    "cache_served_bytes": p.cache_served_bytes,
                    "transfer_bytes": p.transfer_bytes,
                    "amplification": p.amplification,
                    "offload_ratio": p.offload_ratio,
                    "conversions": p.conversions,
                    "tier_hits": p.tier_hits,
                    "misses": p.misses,
                    "h2_mean_plt_ms": p.h2_mean_plt_ms,
                    "h3_mean_plt_ms": p.h3_mean_plt_ms,
                    "paired_visits": p.paired_visits,
                }
                for p in points
            },
            "amplification_exceeds_unity": exceeds,
            "amplification_monotone": monotone,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig-amplification.amplification_exceeds_unity", "Extension: every "
              "cell with identity-demanding clients egresses more than the origin "
              "ingressed (factor > 1)", verdict("amplification_exceeds_unity")),
        Shape("fig-amplification.amplification_monotone", "Extension: the "
              "amplification factor never falls as the identity-demand ratio rises",
              verdict("amplification_monotone")),
    ),
)
