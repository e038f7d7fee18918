"""Fig. 9 — PLT reduction vs CDN resources under different loss rates."""

from __future__ import annotations

from repro.core.congestion import slopes_are_ordered
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    by_number,
    fmt,
    format_table,
)

EXPERIMENT_ID = "fig9"
TITLE = "PLT reduction vs #CDN resources under loss (paper Fig. 9)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    series = study.fig9()
    rows = [
        (
            f"{s.loss_rate * 100:g}%",
            len(s.points),
            fmt(s.slope, 2),
            fmt(s.fit.intercept, 1),
            fmt(s.robust_fit.slope, 2),
        )
        for s in series
    ]
    lines = format_table(
        ("loss rate", "points", "slope (ms/res)", "intercept", "binned-median slope"),
        rows,
    )
    verdict = slopes_are_ordered(series)
    lines.append(
        f"  slopes strictly ordered by loss rate: {verdict} "
        "(paper: 0.80 < 1.42 < 2.15)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "slopes": {s.loss_rate: s.slope for s in series},
            "ordered": verdict,
            "points": {s.loss_rate: list(s.points) for s in series},
        },
    )


def _lossy_slopes_exceed_lossless(data) -> bool:
    slopes = by_number(data["slopes"])
    return min(slopes[0.005], slopes[0.01]) > slopes[0.0] + 0.5


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig9.lossy_slopes_exceed_lossless", "Fig. 9: reduction grows faster under "
              "loss (0.5% and 1% slopes > 0% slope + 0.5 ms/resource)",
              _lossy_slopes_exceed_lossless),
        Shape("fig9.lossless_slope_small", "Fig. 9: 0% slope small (paper 0.80; |s| < 1)",
              lambda d: abs(by_number(d["slopes"])[0.0]) < 1.0),
        Shape("fig9.slopes_strictly_ordered", "Fig. 9: slopes strictly ordered by loss "
              "rate (0.80 < 1.42 < 2.15)", lambda d: d["ordered"], gated=False),
    ),
)
