"""Fallback sweep — H3's edge under rising UDP blackholing.

Not a figure from the paper: this is the testbed extension the fault
subsystem enables.  It sweeps the fraction of hosts whose UDP/443 is
dropped and shows (a) the H3→H2 fallback rate rising monotonically and
(b) the mean PLT reduction shrinking and finally inverting — a blocked
H3 attempt pays its connect timeout and *then* runs over TCP, so it is
strictly worse than native H2.
"""

from __future__ import annotations

from repro.core.fallback import edge_inverts, fallback_rates_are_monotone
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

EXPERIMENT_ID = "fig-fallback"
TITLE = "H3 fallback rate and PLT edge vs UDP-blackhole intensity"


def run(ctx: ExperimentContext) -> ExperimentResult:
    points = ctx.study.fig_fallback(ctx.param("intensities"))
    rows = [
        (
            pct(p.intensity, 0),
            pct(p.fallback_rate),
            fmt(p.mean_plt_reduction_ms),
            p.degraded_visits,
            p.failed_visits,
            p.paired_visits,
        )
        for p in points
    ]
    lines = format_table(
        (
            "blackholed hosts",
            "fallback rate",
            "mean PLT reduction (ms)",
            "degraded",
            "failed",
            "pairs",
        ),
        rows,
    )
    monotone = fallback_rates_are_monotone(points)
    inverts = edge_inverts(points)
    lines.append(
        f"  fallback rate monotone in intensity: {monotone}; "
        f"H3 edge inverts at full blackholing: {inverts}"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "fallback_rates": {p.intensity: p.fallback_rate for p in points},
            "plt_reduction_by_intensity": {
                p.intensity: p.mean_plt_reduction_ms for p in points
            },
            "degraded_visits": {p.intensity: p.degraded_visits for p in points},
            "failed_visits": {p.intensity: p.failed_visits for p in points},
            "monotone_fallback": monotone,
            "edge_inverts": inverts,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig-fallback.monotone_fallback", "Extension: the H3->H2 fallback rate "
              "never falls as more hosts are UDP-blackholed",
              verdict("monotone_fallback")),
    ),
)
