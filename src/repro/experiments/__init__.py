"""Experiment drivers: one module per table/figure in the paper.

Each driver exposes an :class:`~repro.experiments.base.ExperimentSpec`
named ``SPEC`` whose ``run(ctx) -> ExperimentResult`` regenerates the
corresponding table or figure's rows/series from a (possibly
scaled-down) :class:`~repro.core.study.H3CdnStudy`.  The registry maps
experiment ids (``table1`` … ``fig9``, plus the ``fig-fallback``
extension) to specs, and the CLI (``repro-h3cdn``) dispatches through
:meth:`ExperimentSpec.execute`.
"""

from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    format_table,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    find_shape,
    get_spec,
    run_all,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentSpec",
    "Shape",
    "find_shape",
    "format_table",
    "get_spec",
    "run_all",
    "run_experiment",
]
