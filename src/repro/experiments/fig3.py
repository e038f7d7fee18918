"""Fig. 3 — CCDF of the percentage of CDN resources on each webpage."""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    format_table,
    pct,
)

EXPERIMENT_ID = "fig3"
TITLE = "CCDF of per-page CDN resource share (paper Fig. 3)"

#: x-axis probe points for the printed series.
PROBE_POINTS = (0.1, 0.25, 0.5, 0.75, 0.9)


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    dist = study.fig3()
    rows = [(pct(x, 0), pct(dist.ccdf(x))) for x in PROBE_POINTS]
    lines = format_table(("CDN share >", "fraction of pages"), rows)
    lines.append(
        f"  (paper: 75% of pages exceed 50% CDN resources; "
        f"measured {dist.ccdf(0.5) * 100:.1f}%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "ccdf_series": dist.ccdf_series(points=40),
            "ccdf_at_half": dist.ccdf(0.5),
            "median": dist.median,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig3.most_pages_cdn_heavy", "Fig. 3: 75% of pages are > 50% CDN (60-90%)",
              lambda d: 0.60 <= d["ccdf_at_half"] <= 0.90),
    ),
)
