"""Registry of all experiment specs, in paper order."""

from __future__ import annotations

from repro.core.study import H3CdnStudy
from repro.experiments import (
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig_amplification,
    fig_fallback,
    fig_flash_crowd,
    fig_migration,
    fig_miss_storm,
    table1,
    table2,
    table3,
)
from repro.experiments.base import ExperimentResult, ExperimentSpec, Shape

#: Experiment id → :class:`ExperimentSpec`.  Iteration order follows the
#: paper's presentation order; the fallback extension comes last.
EXPERIMENTS: dict[str, ExperimentSpec] = {
    module.SPEC.name: module.SPEC
    for module in (
        table1, table2, fig2, fig3, fig4, fig5, fig6, fig7, fig8, table3,
        fig9, fig_fallback, fig_migration, fig_amplification, fig_miss_storm,
        fig_flash_crowd,
    )
}


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one spec by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None


def find_shape(name: str) -> tuple[str, Shape]:
    """The experiment id and :class:`Shape` registered under ``name``."""
    for spec in EXPERIMENTS.values():
        for shape in spec.shapes:
            if shape.name == name:
                return spec.name, shape
    raise KeyError(f"unknown shape {name!r}")


def run_experiment(
    experiment_id: str, study: H3CdnStudy, **overrides
) -> ExperimentResult:
    """Run one experiment by id (``overrides`` shadow the spec params)."""
    return get_spec(experiment_id).execute(study, **overrides)


def run_all(study: H3CdnStudy) -> list[ExperimentResult]:
    """Run every experiment (sharing the study's cached stages)."""
    return [spec.execute(study) for spec in EXPERIMENTS.values()]
