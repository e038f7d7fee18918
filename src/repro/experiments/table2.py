"""Table II — requests and share of total by HTTP version × CDN/non-CDN."""

from __future__ import annotations

from repro.core.adoption import ROW_ALL, ROW_H2, ROW_H3, ROW_OTHERS
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    fmt,
    format_table,
)

EXPERIMENT_ID = "table2"
TITLE = "Requests and percentage of total by HTTP version (paper Table II)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    table = study.table2()
    rows = []
    for row_label in (ROW_H2, ROW_H3, ROW_OTHERS, ROW_ALL):
        cdn = table.cell(row_label, "cdn")
        non_cdn = table.cell(row_label, "non_cdn")
        total = table.cell(row_label, "all")
        rows.append(
            (
                row_label,
                cdn.requests, fmt(cdn.percent), non_cdn.requests,
                fmt(non_cdn.percent), total.requests, fmt(total.percent),
            )
        )
    lines = format_table(
        ("Protocol", "CDN #", "CDN %", "NonCDN #", "NonCDN %", "All #", "All %"),
        rows,
    )
    lines.append(
        f"  (paper: CDN 67.0% of requests; H3 32.6% overall; "
        f"{table.h3_cdn_share_of_h3 * 100:.1f}% of H3 requests are CDN "
        f"vs paper's 78.8%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "total_requests": table.total_requests,
            "cdn_share": table.cdn_share,
            "h3_share": table.h3_share,
            "h3_cdn_share_of_h3": table.h3_cdn_share_of_h3,
        },
    )


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("table2.cdn_share", "Table II: CDNs serve 67.0% of requests (55-75%)",
              lambda d: 0.55 <= d["cdn_share"] <= 0.75),
        Shape("table2.h3_share", "Table II: H3 carries 32.6% of requests (25-42%)",
              lambda d: 0.25 <= d["h3_share"] <= 0.42),
        Shape("table2.h3_mostly_cdn", "Table II: 78.8% of H3 requests are CDN (> 65%)",
              lambda d: d["h3_cdn_share_of_h3"] > 0.65),
    ),
)
