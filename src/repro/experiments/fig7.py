"""Fig. 7 — reused connections and their effect on PLT reduction."""

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

EXPERIMENT_ID = "fig7"
TITLE = "Reused connections vs PLT reduction (paper Fig. 7)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    reuse = study.fig7a()
    lines = ["  (a)+(b) reused connections per group (H2 vs H3):"]
    lines += format_table(
        ("group", "H2 reused", "H3 reused", "difference"),
        [
            (g.label, fmt(g.mean_reused_h2), fmt(g.mean_reused_h3), fmt(g.mean_difference, 2))
            for g in reuse
        ],
    )
    bins = study.fig7c()
    lines.append("  (c) PLT reduction vs reused-connection difference:")
    lines += format_table(
        ("difference", "pages", "PLT reduction (ms)"),
        [
            (f"[{b.difference_low}, {b.difference_high}]", b.n_pages,
             fmt(b.mean_plt_reduction_ms))
            for b in bins
        ],
    )
    lines.append(
        "  (paper: H2 reuses more than H3, gap widest in High group; "
        "reduction shrinks as the reuse difference grows)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "reuse_by_group": {
                g.label: (g.mean_reused_h2, g.mean_reused_h3) for g in reuse
            },
            "difference_by_group": {g.label: g.mean_difference for g in reuse},
            "reduction_by_difference": [
                (b.center, b.mean_plt_reduction_ms, b.n_pages) for b in bins
            ],
        },
    )


def _difference_grows(data) -> bool:
    diffs = [data["difference_by_group"][label] for label in GROUP_LABELS]
    return all(a < b for a, b in zip(diffs, diffs[1:]))


def _reduction_shrinks(data) -> bool:
    bins = data["reduction_by_difference"]
    return len(bins) >= 2 and bins[0][1] > bins[-1][1]


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig7a.reuse_grows_with_group", "Fig. 7(a): H2 reuse grows, High > Low",
              lambda d: d["reuse_by_group"]["High"][0] > d["reuse_by_group"]["Low"][0]),
        Shape("fig7a.h2_reuses_more", "Fig. 7(a): H2 reuses >= H3 in every group",
              lambda d: all(d["reuse_by_group"][g][0] >= d["reuse_by_group"][g][1]
                            for g in GROUP_LABELS)),
        Shape("fig7b.difference_positive", "Fig. 7(b): reuse difference H2 - H3 > 0 (sum)",
              lambda d: sum(d["difference_by_group"].values()) > 0),
        Shape("fig7b.difference_grows", "Fig. 7(b): the reuse difference grows strictly "
              "with group level", _difference_grows, gated=False),
        Shape("fig7c.reduction_shrinks", "Fig. 7(c): PLT reduction shrinks as the reuse "
              "difference grows (first bin > last bin)", _reduction_shrinks),
    ),
)
