"""The parallel campaign engine: determinism, sharding, serialization.

The contract under test is the strongest one the engine makes: for a
fixed seed, a campaign's results are *bit-identical* for any worker
count and any chunking — paired-visit order, PLT values, HAR entry
timings, pool counters.  That only holds because every (vantage, probe,
page) visit is an isolated simulation with a seed derived from the
triple, so these tests are also the regression net for accidental
cross-page state coupling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser.browser import PageVisit
from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    MultiCampaignPlan,
    derive_seed,
    execute,
)
from repro.web.topsites import GeneratorConfig, cached_universe

#: Small, fast cohort shared by every test in this module.
SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


def visit_fingerprint(visit):
    """Everything an analysis can read from one visit, flattened."""
    return (
        visit.page_url,
        visit.protocol_mode,
        visit.plt_ms,
        visit.status,
        visit.pool_stats,
        tuple(
            (
                e.url,
                e.host,
                e.protocol,
                e.started_at_ms,
                e.time_ms,
                tuple(sorted(e.timings.as_dict().items())),
                e.response_bytes,
                e.request_bytes,
                e.resource_type,
                tuple(sorted(e.headers.items())),
                e.status,
                e.reused,
                e.resumed,
                e.cache_hit,
                e.is_cdn,
                e.provider,
                e.failed,
            )
            for e in visit.entries
        ),
    )


def result_fingerprint(result):
    return [
        (pv.probe_name, pv.page.url, visit_fingerprint(pv.h2), visit_fingerprint(pv.h3))
        for pv in result.paired_visits
    ]


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seen = set()
        for vp in range(3):
            for probe in range(3):
                for page in range(10):
                    seed = derive_seed(7, vp, probe, page)
                    assert seed == derive_seed(7, vp, probe, page)
                    seen.add(seed)
        assert len(seen) == 90  # no collisions across the protocol grid

    def test_base_seed_changes_stream(self):
        assert derive_seed(0, 0, 0, 0) != derive_seed(1, 0, 0, 0)


class TestDeterminism:
    def test_workers_4_reproduces_serial(self):
        """The acceptance criterion: workers=1 == workers=4, fully."""
        universe = small_universe()
        config = CampaignConfig(seed=3)
        serial = execute(CampaignPlan(universe, sim=config, workers=1))
        parallel = execute(CampaignPlan(universe, sim=config, workers=4))
        assert [pv.plt_reduction_ms for pv in serial.paired_visits] == [
            pv.plt_reduction_ms for pv in parallel.paired_visits
        ]
        assert result_fingerprint(serial) == result_fingerprint(parallel)

    def test_chunk_size_is_invisible(self):
        universe = small_universe()
        config = CampaignConfig(seed=5)
        pages = universe.pages[:4]
        baseline = execute(CampaignPlan(universe, sim=config, pages=pages, workers=1))
        for chunk_size in (1, 2, 3):
            chunked = execute(CampaignPlan(
                universe, sim=config, pages=pages, workers=2, chunk_size=chunk_size
            ))
            assert result_fingerprint(chunked) == result_fingerprint(baseline)

    def test_page_subset_matches_full_run_prefix_free(self):
        """Per-page seed derivation is positional: the same page at the
        same index measures identically regardless of worker count."""
        universe = small_universe()
        config = CampaignConfig(seed=11)
        pages = universe.pages[:3]
        once = execute(CampaignPlan(universe, sim=config, pages=pages, workers=1))
        again = execute(CampaignPlan(
            universe, sim=config, pages=pages, workers=2, chunk_size=1
        ))
        assert result_fingerprint(once) == result_fingerprint(again)

    @given(
        seed=st.integers(min_value=0, max_value=500),
        chunk_size=st.sampled_from([None, 1, 2]),
    )
    @settings(max_examples=4, deadline=None)
    def test_property_parallel_equals_serial(self, seed, chunk_size):
        universe = small_universe()
        config = CampaignConfig(seed=seed, loss_rate=0.005)
        pages = universe.pages[:2]
        serial = execute(CampaignPlan(universe, sim=config, pages=pages, workers=1))
        parallel = execute(CampaignPlan(
            universe, sim=config, pages=pages, workers=2, chunk_size=chunk_size
        ))
        assert result_fingerprint(serial) == result_fingerprint(parallel)


class TestRunCampaigns:
    def test_multiple_configs_share_one_pool(self):
        universe = small_universe()
        configs = {
            ("loss", 0.0): CampaignConfig(seed=2, loss_rate=0.0),
            ("loss", 0.01): CampaignConfig(seed=2, loss_rate=0.01),
        }
        pages = universe.pages[:3]
        pooled = execute(MultiCampaignPlan(universe, configs, pages=pages, workers=2))
        assert set(pooled) == set(configs)
        for key, config in configs.items():
            solo = execute(CampaignPlan(universe, sim=config, pages=pages, workers=1))
            assert result_fingerprint(pooled[key]) == result_fingerprint(solo)

    def test_parallel_campaign_wrapper(self):
        universe = small_universe()
        config = CampaignConfig(seed=9)
        pages = universe.pages[:2]
        wrapped = execute(CampaignPlan(universe, sim=config, workers=2, pages=pages))
        direct = execute(CampaignPlan(universe, sim=config, pages=pages, workers=1))
        assert result_fingerprint(wrapped) == result_fingerprint(direct)

    def test_probe_names_cover_vantage_and_probe_grid(self):
        universe = small_universe()
        config = CampaignConfig(probes_per_vantage=2, max_vantage_points=2, seed=1)
        result = execute(CampaignPlan(
            universe, sim=config, pages=universe.pages[:1], workers=1
        ))
        names = {pv.probe_name for pv in result.paired_visits}
        assert names == {"utah-0", "utah-1", "wisconsin-0", "wisconsin-1"}


class TestVisitSerialization:
    def test_page_visit_round_trip_is_lossless(self):
        universe = small_universe()
        result = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=4), pages=universe.pages[:1], workers=1
        ))
        for visit in (result.paired_visits[0].h2, result.paired_visits[0].h3):
            restored = PageVisit.from_dict(visit.to_dict())
            assert visit_fingerprint(restored) == visit_fingerprint(visit)
            assert restored.har.on_load_ms == visit.har.on_load_ms
            assert restored.har.started_at_ms == visit.har.started_at_ms

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            PageVisit.from_dict({"format": "something-else"})
