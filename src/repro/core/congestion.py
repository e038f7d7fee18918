"""Loss-sweep congestion analysis: Fig. 9 (Section VI-E).

The paper injects 0 %, 0.5 % and 1 % loss with ``tc netem`` and plots
PLT reduction against the number of CDN resources per page, with a
linear fit per loss rate.  The headline is the slope ordering: more
loss ⇒ steeper benefit per CDN resource (H3's stream multiplexing
absorbs TCP's HoL penalty, which grows with both loss and content).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.analysis.stats import LinearFit, linear_fit, median
from repro.measurement.campaign import CampaignConfig
from repro.measurement.executor import MultiCampaignPlan, execute

#: The paper's loss rates.
DEFAULT_LOSS_RATES = (0.0, 0.005, 0.01)


@dataclass(frozen=True)
class LossSweepSeries:
    """One loss-rate curve of Fig. 9.

    ``fit`` is the ordinary least-squares line over the raw scatter;
    ``robust_fit`` first bins pages by CDN-resource count and fits the
    per-bin *median* reductions, which tames the heavy-tailed noise of
    individual lossy page loads (unlucky retransmission-timeout chains
    can swing a single page by seconds).  The paper's smooth "fitted
    curves" correspond to the robust variant.
    """

    loss_rate: float
    #: (number of CDN resources on the page, PLT reduction in ms)
    points: tuple[tuple[int, float], ...]
    fit: LinearFit
    robust_fit: LinearFit

    @property
    def slope(self) -> float:
        """ms of extra PLT reduction per additional CDN resource (OLS
        over the raw scatter — the headline estimate; ``robust_fit``
        gives the binned-median cross-check)."""
        return self.fit.slope


def binned_median_fit(
    points: Sequence[tuple[int, float]], n_bins: int = 8
) -> LinearFit:
    """OLS over per-bin medians, with equal-*count* bins.

    Points are sorted by x and split into ``n_bins`` equally populated
    bins; each contributes its (median x, median y).  Equal-count bins
    avoid giving the sparse large-page tail the leverage equal-width
    bins would, which matters because individual lossy page loads are
    heavy-tailed.  Falls back to the raw OLS fit for degenerate inputs.
    """
    ordered = sorted((float(x), y) for x, y in points)
    xs = [x for x, __ in ordered]
    if xs[0] == xs[-1] or n_bins < 2 or len(ordered) < 2 * n_bins:
        return linear_fit(xs, [y for __, y in ordered])
    centers, medians = [], []
    base, remainder = divmod(len(ordered), n_bins)
    start = 0
    for index in range(n_bins):
        size = base + (1 if index < remainder else 0)
        chunk = ordered[start : start + size]
        start += size
        centers.append(median([x for x, __ in chunk]))
        medians.append(median([y for __, y in chunk]))
    if len(set(centers)) < 2:
        return linear_fit(xs, [y for __, y in ordered])
    return linear_fit(centers, medians)


def loss_sweep(
    plan: MultiCampaignPlan,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    seed: int = 0,
    repetitions: int = 1,
    campaign_config: CampaignConfig | None = None,
) -> list[LossSweepSeries]:
    """Run the Fig. 9 experiment: one campaign per loss rate.

    ``plan`` gives the run shape (universe, pages, workers, store) and
    no configs; the sweep fills them in.  ``repetitions`` re-runs each
    campaign with distinct seeds and pools the points — loss is
    stochastic, so the paper-style fitted slopes stabilize with a few
    repetitions.

    All ``loss_rate × repetition`` campaigns share the plan's worker
    pool, so every loss rate is just another set of independent shards
    rather than a serial outer loop.  With a store on the plan, each
    campaign is a separate named run under ``plan.run_prefix`` and
    already-stored visits are replayed instead of re-simulated.

    Each rate's fit needs at least two paired visits; a plan that gives
    a rate fewer raises :class:`ValueError` before anything runs.
    """
    base = campaign_config or CampaignConfig()
    per_rate = repetitions * plan.visit_count(base)
    if per_rate < 2:
        raise ValueError(
            f"a loss-rate fit needs at least two paired visits; this plan "
            f"gives each rate {per_rate}"
        )
    # replace() keeps every other knob from the caller's config; the
    # old field-by-field copy silently dropped anything added after it
    # was written (fault_profile, collect_counters, trace, strict).
    configs = {
        (loss_rate, repetition): replace(
            base, loss_rate=loss_rate, seed=seed + repetition
        )
        for loss_rate in loss_rates
        for repetition in range(repetitions)
    }
    results = execute(replace(plan, configs=configs))
    series: list[LossSweepSeries] = []
    for loss_rate in loss_rates:
        points: list[tuple[int, float]] = []
        for repetition in range(repetitions):
            result = results[(loss_rate, repetition)]
            points.extend(
                (len(pv.page.cdn_resources), pv.plt_reduction_ms)
                for pv in result.paired_visits
            )
        xs = [float(x) for x, __ in points]
        ys = [y for __, y in points]
        series.append(
            LossSweepSeries(
                loss_rate=loss_rate,
                points=tuple(points),
                fit=linear_fit(xs, ys),
                robust_fit=binned_median_fit(points),
            )
        )
    return series


def slopes_are_ordered(series: Sequence[LossSweepSeries]) -> bool:
    """The paper's check: slope strictly increases with loss rate."""
    ordered = sorted(series, key=lambda s: s.loss_rate)
    return all(
        earlier.slope < later.slope
        for earlier, later in zip(ordered, ordered[1:])
    )
