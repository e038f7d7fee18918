"""Gate: every gated paper shape holds on the session bench study.

The shapes are declared on each experiment's ``ExperimentSpec``
(``src/repro/experiments/<fig>.py``); this file only evaluates them.
"""

import functools

import pytest

from repro.experiments import EXPERIMENTS, run_experiment

GATED = [
    pytest.param(spec.name, shape, id=shape.name)
    for spec in EXPERIMENTS.values()
    for shape in spec.shapes
    if shape.gated
]


@functools.cache
def _result(study, experiment_id):
    return run_experiment(experiment_id, study)


@pytest.mark.parametrize("experiment_id, shape", GATED)
def test_shape(study, experiment_id, shape):
    result = _result(study, experiment_id)
    assert shape.holds(result.data), f"{shape.paper}\n{result.render()}"
