"""The streaming campaign executor and the lazy universe.

The contracts under test:

* **Fold equivalence** — the summary folded incrementally while the
  campaign streams is field-identical to folding the materialized
  ``paired_visits`` after the fact, for any worker count, warm or cold
  store, with or without ``summary_only``.
* **Lazy prefix identity** — ``LazyWebUniverse.page_at(i)`` is
  bit-identical for any ``n_sites``, so a 100k-site universe agrees
  with a small one on every shared index.
* **Backpressure** — the bounded in-flight window and the reorder
  buffer both respect their caps (``exec_stats`` high-water marks).
* **Mid-stream resume** — killing a run partway leaves a journal that
  a ``resume=True`` re-run completes without re-simulating.
"""

import os

import pytest

from repro.measurement import parallel as parallel_mod
from repro.measurement.campaign import (
    CampaignConfig,
    SimConfig,
    TelemetryConfig,
)
from repro.measurement.executor import (
    CampaignPlan,
    MultiCampaignPlan,
    PageSource,
    execute,
)
from repro.measurement.report import campaign_report
from repro.measurement.summary import CampaignSummary, FixedGridHistogram
from repro.store import ResultStore
from repro.web.topsites import (
    GeneratorConfig,
    LazyWebUniverse,
    cached_universe,
    lazy_universe,
)

#: Small, fast cohort shared by every test in this module.
SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


def small_config(**overrides) -> CampaignConfig:
    knobs = dict(visits_per_page=1, probes_per_vantage=1,
                 max_vantage_points=2, seed=7)
    knobs.update(overrides)
    return CampaignConfig(**knobs)


class TestFoldEquivalence:
    """Streaming summary == materialized fold, under every execution mode."""

    def test_streaming_summary_matches_materialized_fold(self):
        universe = small_universe()
        result = execute(CampaignPlan(universe=universe, sim=small_config()))
        assert result.summary is not None
        refold = CampaignSummary.from_result(result, universe=universe)
        assert result.summary.to_dict() == refold.to_dict()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_workers_do_not_change_the_summary(self, workers):
        universe = small_universe()
        serial = execute(CampaignPlan(universe=universe, sim=small_config()))
        other = execute(CampaignPlan(
            universe=universe, sim=small_config(),
            workers=workers, chunk_size=1,
        ))
        assert other.summary.to_dict() == serial.summary.to_dict()

    def test_summary_only_mode_drops_visits_but_not_the_summary(self):
        universe = small_universe()
        full = execute(CampaignPlan(universe=universe, sim=small_config()))
        slim = execute(CampaignPlan(
            universe=universe, sim=small_config(),
            workers=2, chunk_size=1, summary_only=True,
        ))
        assert slim.paired_visits == []
        assert slim.summary.to_dict() == full.summary.to_dict()
        assert slim.pages_measured == full.pages_measured

    @pytest.mark.parametrize("workers", [1, 3])
    def test_warm_store_replay_folds_identically(self, tmp_path, workers):
        universe = small_universe()
        cold_store = ResultStore(os.fspath(tmp_path / "store"))
        cold = execute(CampaignPlan(
            universe=universe, sim=small_config(), workers=workers,
            chunk_size=1, store=cold_store, run_name="cold",
        ))
        assert cold.store_stats.misses and not cold.store_stats.hits
        warm_store = ResultStore(os.fspath(tmp_path / "store"))
        warm = execute(CampaignPlan(
            universe=universe, sim=small_config(), workers=workers,
            chunk_size=1, store=warm_store, run_name="warm",
        ))
        assert warm.store_stats.hits and not warm.store_stats.misses
        assert warm.summary.to_dict() == cold.summary.to_dict()

    def test_summary_survives_result_report(self):
        universe = small_universe()
        full = execute(CampaignPlan(universe=universe, sim=small_config()))
        slim = execute(CampaignPlan(
            universe=universe, sim=small_config(), summary_only=True,
        ))
        full_report = campaign_report(full)
        slim_report = campaign_report(slim)
        assert slim_report.pages_measured == full_report.pages_measured
        assert slim_report.total_requests == full_report.total_requests
        assert slim_report.h2.requests == full_report.h2.requests
        assert slim_report.h2.mean_plt_ms == pytest.approx(
            full_report.h2.mean_plt_ms
        )
        assert slim_report.pages_h3_wins == full_report.pages_h3_wins
        # Histogram quantiles are accurate to one bin width (50 ms).
        assert slim_report.h2.median_plt_ms == pytest.approx(
            full_report.h2.median_plt_ms, abs=50.0
        )

    def test_fallback_rate_folds_from_h3_entries(self):
        universe = small_universe()
        result = execute(CampaignPlan(
            universe=universe, sim=small_config(), summary_only=True,
        ))
        summary = result.summary
        assert summary.fallback_eligible > 0
        assert 0.0 <= summary.fallback_rate <= 1.0

    def test_multi_campaign_plan_returns_per_key_summaries(self):
        universe = small_universe()
        results = execute(MultiCampaignPlan(
            universe=universe,
            configs={
                "base": small_config(),
                "lossy": small_config(loss_rate=0.01),
            },
            workers=2,
            chunk_size=1,
        ))
        assert set(results) == {"base", "lossy"}
        solo = execute(CampaignPlan(universe=universe, sim=small_config()))
        assert results["base"].summary.to_dict() == solo.summary.to_dict()


class TestLazyUniverse:
    def test_prefix_identity_across_n_sites(self):
        small = lazy_universe(SMALL, seed=3)
        big = lazy_universe(
            GeneratorConfig(
                n_sites=40, resources_per_page_median=12.0,
                min_resources=5, max_resources=25,
            ),
            seed=3,
        )
        for index in range(SMALL.n_sites):
            assert small.page_at(index) == big.page_at(index)

    def test_iter_pages_matches_page_at(self):
        universe = lazy_universe(SMALL, seed=3)
        streamed = list(universe.iter_pages(4))
        assert streamed == [universe.page_at(i) for i in range(4)]

    def test_every_resource_host_resolves(self):
        universe = lazy_universe(SMALL, seed=3)
        for page in universe.iter_pages():
            for resource in page.all_resources:
                spec = universe.hosts[resource.host]
                assert spec.hostname == resource.host

    def test_page_cache_is_bounded_and_regeneration_identical(self):
        universe = lazy_universe(
            GeneratorConfig(
                n_sites=LazyWebUniverse._PAGE_CACHE_SIZE + 40,
                resources_per_page_median=12.0,
                min_resources=5, max_resources=25,
            ),
            seed=5,
        )
        first = universe.page_at(0)
        for page in universe.iter_pages():  # churn past the cache bound
            pass
        assert len(universe._cache) <= LazyWebUniverse._PAGE_CACHE_SIZE
        assert 0 not in universe._cache  # evicted…
        assert universe.page_at(0) == first  # …but regenerates identically

    def test_pickling_drops_the_cache(self):
        import pickle

        universe = lazy_universe(SMALL, seed=3)
        universe.page_at(2)
        restored = pickle.loads(pickle.dumps(universe))
        assert len(restored._cache) == 0
        assert restored.page_at(2) == universe.page_at(2)

    def test_unknown_host_raises_keyerror(self):
        universe = lazy_universe(SMALL, seed=3)
        with pytest.raises(KeyError):
            universe.hosts["no-such-host.invalid"]

    def test_campaign_over_lazy_universe_matches_eager(self):
        """Same (config, seed) ⇒ a lazy universe's own campaign is
        self-consistent between serial and pooled execution."""
        universe = lazy_universe(SMALL, seed=3)
        config = small_config()
        serial = execute(CampaignPlan(
            universe=universe, sim=config, page_count=4, summary_only=True,
        ))
        pooled = execute(CampaignPlan(
            universe=universe, sim=config, page_count=4,
            workers=3, chunk_size=1, summary_only=True,
        ))
        assert serial.summary.to_dict() == pooled.summary.to_dict()

    def test_page_source_indexes_lazily(self):
        universe = lazy_universe(SMALL, seed=3)
        source = PageSource(universe)
        assert len(source) == SMALL.n_sites
        assert source[2] == universe.page_at(2)


class TestBackpressure:
    def test_in_flight_window_respects_the_cap(self):
        universe = small_universe()
        result = execute(CampaignPlan(
            universe=universe, sim=small_config(),
            workers=2, chunk_size=1, max_in_flight=2,
        ))
        stats = result.exec_stats
        assert stats["mode"] == "pool"
        assert stats["max_in_flight_seen"] <= 2
        assert stats["units_submitted"] == 12

    def test_serial_mode_never_buffers(self):
        universe = small_universe()
        result = execute(CampaignPlan(universe=universe, sim=small_config()))
        assert result.exec_stats["mode"] == "serial"
        assert result.exec_stats["max_ready_backlog"] <= 1


class TestResume:
    def test_mid_stream_kill_then_resume(self, tmp_path, monkeypatch):
        universe = small_universe()
        config = small_config()
        store = ResultStore(os.fspath(tmp_path / "store"))
        real = parallel_mod.measure_visit_outcome
        calls = {"n": 0}

        def dies_after_four(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 4:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(
            parallel_mod, "measure_visit_outcome", dies_after_four
        )
        with pytest.raises(KeyboardInterrupt):
            execute(CampaignPlan(
                universe=universe, sim=config,
                store=store, run_name="killed",
            ))
        monkeypatch.setattr(parallel_mod, "measure_visit_outcome", real)
        store.close()

        reopened = ResultStore(os.fspath(tmp_path / "store"))
        info = reopened.run_info("killed")
        assert not info.complete
        assert info.journaled == 4  # the interrupt flushed completed work
        resumed = execute(CampaignPlan(
            universe=universe, sim=config,
            store=reopened, run_name="killed", resume=True,
        ))
        assert resumed.store_stats.resumed == 4
        assert resumed.summary.total_visits == 12
        fresh = execute(CampaignPlan(universe=universe, sim=config))
        assert resumed.summary.to_dict() == fresh.summary.to_dict()
        info = reopened.run_info("killed")
        assert info.complete and info.n_visits == 12
        reopened.close()


class TestConfigGroups:
    def test_facade_decomposes_and_recomposes(self):
        config = CampaignConfig(
            visits_per_page=3, loss_rate=0.01, seed=9,
            collect_counters=True, progress=True,
        )
        sim, telemetry = config.sim, config.telemetry
        assert isinstance(sim, SimConfig)
        assert isinstance(telemetry, TelemetryConfig)
        assert sim.visits_per_page == 3 and sim.loss_rate == 0.01
        assert telemetry.collect_counters and telemetry.progress
        rebuilt = CampaignConfig.from_groups(sim, telemetry)
        assert rebuilt == config

    def test_sim_config_plan_runs_without_telemetry(self):
        universe = small_universe()
        result = execute(CampaignPlan(
            universe=universe,
            sim=SimConfig(visits_per_page=1, max_vantage_points=1, seed=7),
        ))
        assert result.summary.total_visits == 6


class TestFixedGridHistogram:
    def test_merge_equals_bulk_add(self):
        a = FixedGridHistogram(lo=0.0, width=10.0, nbins=20)
        b = FixedGridHistogram(lo=0.0, width=10.0, nbins=20)
        both = FixedGridHistogram(lo=0.0, width=10.0, nbins=20)
        for i, value in enumerate([3.0, 55.0, 199.0, -4.0, 250.0, 42.0]):
            (a if i % 2 else b).add(value)
            both.add(value)
        a.merge(b)
        assert a.to_dict() == both.to_dict()

    def test_moments_are_exact(self):
        hist = FixedGridHistogram(lo=0.0, width=10.0, nbins=20)
        values = [12.5, 47.0, 160.0, 3.25]
        for value in values:
            hist.add(value)
        assert hist.mean == pytest.approx(sum(values) / len(values))
        assert hist.min == min(values) and hist.max == max(values)

    def test_quantiles_hit_the_right_bin(self):
        hist = FixedGridHistogram(lo=0.0, width=10.0, nbins=10)
        for value in range(0, 100):  # uniform 0..99
            hist.add(float(value))
        assert hist.quantile(0.5) == pytest.approx(49.5, abs=10.0)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 99.0

    def test_roundtrip(self):
        hist = FixedGridHistogram(lo=-5.0, width=2.5, nbins=8)
        for value in [-20.0, -4.0, 0.0, 7.5, 100.0]:
            hist.add(value)
        clone = FixedGridHistogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()

    def test_top_edge_value_lands_in_last_bin(self):
        """Regression: a value exactly at ``lo + nbins*width`` is in
        range (the grid covers a closed interval), not overflow."""
        hist = FixedGridHistogram(lo=0.0, width=10.0, nbins=10)
        hist.add(100.0)
        assert hist.counts[hist.nbins] == 1
        assert hist.counts[hist.nbins + 1] == 0
        hist.add(100.0000001)
        assert hist.counts[hist.nbins + 1] == 1

    def test_quantile_near_one_with_top_edge_values(self):
        hist = FixedGridHistogram(lo=0.0, width=10.0, nbins=10)
        for _ in range(100):
            hist.add(100.0)
        # All mass sits in the last real bin; the q≈1 estimate must
        # come from that bin, not from an (empty) overflow bucket.
        assert 90.0 <= hist.quantile(0.99) <= 100.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_extremes_and_empty(self):
        empty = FixedGridHistogram(lo=0.0, width=1.0, nbins=5)
        assert empty.quantile(0.0) == 0.0
        assert empty.quantile(1.0) == 0.0
        hist = FixedGridHistogram(lo=0.0, width=1.0, nbins=5)
        for value in [0.3, 2.2, 4.9]:
            hist.add(value)
        assert hist.quantile(0.0) == 0.3
        assert hist.quantile(1.0) == 4.9
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_all_overflow_quantiles_report_recorded_extremes(self):
        hist = FixedGridHistogram(lo=0.0, width=1.0, nbins=5)
        for value in [50.0, 60.0, 70.0]:
            hist.add(value)
        assert hist.quantile(0.0) == 50.0
        assert hist.quantile(0.5) == 70.0  # overflow bucket reports max
        assert hist.quantile(1.0) == 70.0
        under = FixedGridHistogram(lo=0.0, width=1.0, nbins=5)
        for value in [-3.0, -2.0]:
            under.add(value)
        assert under.quantile(0.5) == -3.0  # underflow bucket reports min
