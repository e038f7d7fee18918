"""Table III — high-sharing vs low-sharing case study (k-means groups)."""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    fmt,
    format_table,
)

EXPERIMENT_ID = "table3"
TITLE = "PLT reduction for high/low sharing-degree groups (paper Table III)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    result = study.table3()
    rows = [
        (
            "Avg num. of shared providers",
            fmt(result.high.avg_shared_providers, 2),
            fmt(result.low.avg_shared_providers, 2),
        ),
        (
            "Avg num. of resumed connections",
            fmt(result.high.avg_resumed_connections, 2),
            fmt(result.low.avg_resumed_connections, 2),
        ),
        (
            "PLT reduction (ms)",
            fmt(result.high.plt_reduction_ms, 2),
            fmt(result.low.plt_reduction_ms, 2),
        ),
        ("Pages in group", result.high.n_pages, result.low.n_pages),
    ]
    lines = format_table(("Metric", "High sharing C_H", "Low sharing C_L"), rows)
    lines.append(
        f"  (clustered over {result.n_domains} shared domains, "
        f"{result.outliers_removed} outlier pages removed; paper: 58 domains, "
        "C_H 4.16/101.64/109.3ms vs C_L 2.58/73.74/54.35ms)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "high": result.high.__dict__,
            "low": result.low.__dict__,
            "n_domains": result.n_domains,
            "outliers_removed": result.outliers_removed,
        },
    )


def _gap(key: str, factor: float = 1.0, offset: float = 0.0):
    """Whether C_H's ``key`` exceeds ``factor * C_L + offset``."""
    return lambda data: data["high"][key] > factor * data["low"][key] + offset


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("table3.shared_providers_ordering", "Table III: C_H uses more shared "
              "providers than C_L (4.16 vs 2.58)", _gap("avg_shared_providers")),
        Shape("table3.resumed_within_slack", "Table III: C_H resumes more connections "
              "(101.64 vs 73.74); C_H > 0.7x C_L", _gap("avg_resumed_connections", 0.7)),
        Shape("table3.reduction_within_slack", "Table III: C_H gains more (109.3 vs "
              "54.35 ms); C_H > C_L - 20 ms", _gap("plt_reduction_ms", offset=-20.0)),
        Shape("table3.resumed_ordering", "Table III: C_H resumes more connections than "
              "C_L (101.64 vs 73.74)", _gap("avg_resumed_connections"), gated=False),
        Shape("table3.reduction_ordering", "Table III: C_H's PLT reduction exceeds C_L's "
              "(109.3 vs 54.35 ms)", _gap("plt_reduction_ms"), gated=False),
        Shape("table3.reduction_gap_2x", "Table III: C_H's PLT reduction ~2x C_L's "
              "(109.3 vs 54.35 ms; > 2x)", _gap("plt_reduction_ms", 2.0), gated=False),
    ),
)
