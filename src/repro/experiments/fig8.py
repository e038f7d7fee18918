"""Fig. 8 — shared providers and connection resumption in consecutive visits."""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    by_number,
    fmt,
    format_table,
)

EXPERIMENT_ID = "fig8"
TITLE = "Shared providers, resumption and PLT under consecutive visits (Fig. 8)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    reductions = study.fig8a()
    resumed = study.fig8b()
    rows = [
        (k, fmt(reductions.get(k, float("nan"))), fmt(resumed.get(k, float("nan"))))
        for k in sorted(set(reductions) | set(resumed))
    ]
    lines = format_table(
        ("#providers", "PLT reduction (ms)", "resumed connections"), rows
    )
    lines.append(
        "  (paper: both PLT reduction and resumed connections grow with the "
        "number of used providers)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "plt_reduction_by_providers": reductions,
            "resumed_by_providers": resumed,
        },
    )


def _with_providers(series) -> list[float]:
    """The series over pages that use at least one provider, by count."""
    series = by_number(series)
    return [series[k] for k in sorted(series) if k >= 1]


def _top_bucket_resumes_more(data) -> bool:
    resumed = _with_providers(data["resumed_by_providers"])
    return resumed[-1] > 1.1 * resumed[0]


def _resumption_mostly_rises(data) -> bool:
    resumed = by_number(data["resumed_by_providers"])
    values = [resumed[k] for k in sorted(resumed)]
    increases = sum(1 for a, b in zip(values, values[1:]) if b >= a)
    return increases >= (len(values) - 1) / 2


def _monotone(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig8a.h3_wins_overall", "Fig. 8(a): PLT reductions positive overall "
              "(sum over buckets > 0)",
              lambda d: sum(d["plt_reduction_by_providers"].values()) > 0),
        Shape("fig8a.reduction_monotone", "Fig. 8(a): PLT reduction grows with providers",
              lambda d: _monotone(_with_providers(d["plt_reduction_by_providers"])),
              gated=False),
        Shape("fig8b.top_bucket_resumes_more", "Fig. 8(b): the most-providers bucket "
              "resumes > 1.1x the fewest-providers (>= 1) bucket", _top_bucket_resumes_more),
        Shape("fig8b.resumption_mostly_rises", "Fig. 8(b): resumed connections rise with "
              "providers (>= half the bucket steps)", _resumption_mostly_rises),
        Shape("fig8b.resumption_monotone", "Fig. 8(b): resumed connections grow "
              "monotonically with providers",
              lambda d: _monotone(_with_providers(d["resumed_by_providers"])), gated=False),
    ),
)
