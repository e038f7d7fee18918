"""Fig. 6 — PLT reduction by H3-adoption group + phase-reduction CDFs."""

from __future__ import annotations

from repro.core.groups import GROUP_LABELS
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    fmt,
    format_table,
)

EXPERIMENT_ID = "fig6"
TITLE = "PLT reduction per group and phase reductions (paper Fig. 6)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    groups = study.fig6a()
    lines = ["  (a) PLT reduction by H3-enabled-resource quartile group:"]
    lines += format_table(
        ("group", "pages", "mean H3 entries", "PLT reduction (ms)"),
        [
            (g.label, g.n_pages, fmt(g.mean_h3_entries), fmt(g.mean_plt_reduction_ms))
            for g in groups
        ],
    )
    dists = study.fig6b()
    lines.append("  (b) per-page phase reduction distributions (ms):")
    lines += format_table(
        ("phase", "median", "p25", "p75"),
        [
            (
                phase,
                fmt(dist.median, 2),
                fmt(dist.quantile(0.25), 2),
                fmt(dist.quantile(0.75), 2),
            )
            for phase, dist in dists.items()
        ],
    )
    lines.append(
        "  (paper: all groups positive, interior maximum, High lowest among "
        "upper groups; medians: connection > 0, wait < 0, receive ~ 0)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "group_reductions": {g.label: g.mean_plt_reduction_ms for g in groups},
            "phase_medians": {phase: dist.median for phase, dist in dists.items()},
            "phase_cdf_series": {
                phase: dist.cdf_series(points=40) for phase, dist in dists.items()
            },
        },
    )


def _groups(data) -> list[float]:
    return [data["group_reductions"][label] for label in GROUP_LABELS]


def _phase_median_signs(data) -> bool:
    medians = data["phase_medians"]
    return medians["connection"] > 0.0 > medians["wait"] and abs(medians["receive"]) < 5.0


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig6a.groups_benefit", "Fig. 6(a): all groups gain (each > -10 ms, mean > 0)",
              lambda d: min(_groups(d)) > -10.0 and sum(_groups(d)) > 0.0),
        Shape("fig6a.all_groups_positive", "Fig. 6(a): every group's mean reduction > 0",
              lambda d: min(_groups(d)) > 0.0, gated=False),
        Shape("fig6a.interior_maximum", "Fig. 6(a): turning point (a Medium group peaks)",
              lambda d: max(_groups(d)[1:3]) > max(_groups(d)[0], _groups(d)[3]), gated=False),
        Shape("fig6b.phase_median_signs", "Fig. 6(b): median reductions connection > 0, "
              "wait < 0, receive ~ 0 (|median| < 5 ms)", _phase_median_signs),
    ),
)
