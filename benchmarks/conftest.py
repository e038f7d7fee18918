"""Shared fixtures for the benchmark harness.

One session-scoped :class:`H3CdnStudy` backs the paper-shape gate
(``bench_shapes.py``) so the expensive stages (universe generation, the
paired campaign, the consecutive walk, the loss sweep) run once.  At
this scale (60 sites, 40-page loss sweep with 2 repetitions) the gated
shapes hold at ``BENCH_SEED``, not at every seed: EXPERIMENTS.md lists
the seeds each fails at, and the full-scale (325 site) numbers of
``repro-h3cdn --scale full``.
"""

import pytest

from repro.core import H3CdnStudy, StudyConfig

BENCH_SITES = 60
BENCH_SEED = 7


@pytest.fixture(scope="session")
def study():
    return H3CdnStudy(
        StudyConfig(
            n_sites=BENCH_SITES,
            seed=BENCH_SEED,
            max_loss_sweep_pages=40,
            loss_sweep_repetitions=2,
        )
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavy function with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
