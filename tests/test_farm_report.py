"""Direct coverage for the server farm and report internals.

``ServerFarm`` was previously exercised only through full campaigns;
these tests pin its cache-warming, cache-clearing and traffic-accounting
behavior in isolation, plus the report's win-rate arithmetic and a
golden rendering (the report is parsed by people and smoke scripts, so
its shape is part of the contract).
"""

import random

import pytest

from repro.cdn.edge import EdgeServer
from repro.events import EventLoop
from repro.measurement import CampaignConfig, CampaignPlan, campaign_report, execute
from repro.measurement.farm import ProbeNetProfile, ServerFarm
from repro.measurement.report import CampaignReport, ModeSummary
from repro.analysis.bootstrap import ConfidenceInterval
from repro.store.store import StoreStats
from repro.web.topsites import GeneratorConfig, cached_universe

SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


def make_farm(universe, profile=None):
    return ServerFarm(
        EventLoop(), universe.hosts, net_profile=profile, rng=random.Random(0)
    )


class TestProbeNetProfile:
    def test_netem_scales_and_offsets_rtt(self):
        universe = small_universe()
        host = next(iter(universe.hosts.values()))
        profile = ProbeNetProfile(rtt_scale=2.0, extra_delay_ms=10.0)
        netem = profile.netem_for(host)
        assert netem.delay_ms == pytest.approx(host.base_rtt_ms + 10.0)
        assert netem.rate_mbps == profile.rate_mbps

    def test_impairments_pass_through(self):
        universe = small_universe()
        host = next(iter(universe.hosts.values()))
        netem = ProbeNetProfile(
            loss_rate=0.02, jitter_ms=3.0, bursty_loss=True, rate_mbps=None
        ).netem_for(host)
        assert netem.loss_rate == 0.02
        assert netem.jitter_ms == 3.0
        assert netem.bursty_loss
        assert netem.rate_mbps is None


class TestServerFarm:
    def test_warm_caches_seeds_popular_cdn_objects(self):
        universe = small_universe()
        farm = make_farm(universe)
        farm.warm_caches(universe.pages)
        popular = [
            resource
            for page in universe.pages
            for resource in page.cdn_resources
            if resource.popular
        ]
        assert popular, "cohort must have popular CDN objects"
        for resource in popular:
            server = farm.server(resource.host)
            assert isinstance(server, EdgeServer)
            assert resource.url in server.cache

    def test_warm_skips_unpopular_objects(self):
        universe = small_universe()
        farm = make_farm(universe)
        farm.warm_caches(universe.pages)
        unpopular = [
            resource
            for page in universe.pages
            for resource in page.cdn_resources
            if not resource.popular
        ]
        for resource in unpopular:
            server = farm.server(resource.host)
            if isinstance(server, EdgeServer):
                assert resource.url not in server.cache

    def test_clear_caches_reinstantiates_edges(self):
        universe = small_universe()
        farm = make_farm(universe)
        farm.warm_caches(universe.pages)
        warmed = [
            hostname
            for hostname, server in farm._servers.items()
            if isinstance(server, EdgeServer) and len(server.cache) > 0
        ]
        assert warmed
        farm.clear_caches()
        for hostname in warmed:
            assert len(farm.server(hostname).cache) == 0

    def test_total_bytes_starts_at_zero_and_counts_paths(self):
        universe = small_universe()
        farm = make_farm(universe)
        assert farm.total_bytes_transferred() == 0
        # Paths are lazy: touching one registers it in the accounting.
        hostname = next(iter(universe.hosts))
        farm.path(hostname)
        assert farm.total_bytes_transferred() == 0

    def test_campaign_reports_nonzero_traffic(self):
        universe = small_universe()
        result = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=universe.pages[:2]
        ))
        report = campaign_report(result)
        assert report.h2.bytes_transferred > 0

    def test_repr_is_informative(self):
        universe = small_universe()
        farm = make_farm(universe)
        assert "ServerFarm" in repr(farm)
        assert f"hosts={len(universe.hosts)}" in repr(farm)


def _mode_summary(mode: str) -> ModeSummary:
    return ModeSummary(
        mode=mode,
        pages=4,
        requests=40,
        mean_plt_ms=1234.5,
        median_plt_ms=1100.0,
        p90_plt_ms=2000.0,
        reused_requests=12,
        resumed_requests=3,
        bytes_transferred=5_000_000,
    )


def _report(**overrides) -> CampaignReport:
    fields = dict(
        pages_measured=4,
        total_requests=80,
        h2=_mode_summary("h2-only"),
        h3=_mode_summary("h3-enabled"),
        plt_reduction_ci=ConfidenceInterval(
            point=50.0, low=20.0, high=80.0, confidence=0.95, resamples=1000
        ),
        pages_h3_wins=3,
    )
    fields.update(overrides)
    return CampaignReport(**fields)


class TestReportRendering:
    def test_h3_win_rate(self):
        assert _report().h3_win_rate == 0.75
        assert _report(pages_measured=0, pages_h3_wins=0).h3_win_rate == 0.0

    def test_render_golden(self):
        expected = "\n".join(
            [
                "campaign: 4 paired page measurements, 80 requests",
                "  h2-only     PLT mean  1234.5 ms "
                "(median  1100.0, p90  2000.0); "
                "12 reused / 3 resumed requests; 5.0 MB",
                "  h3-enabled  PLT mean  1234.5 ms "
                "(median  1100.0, p90  2000.0); "
                "12 reused / 3 resumed requests; 5.0 MB",
                "  PLT reduction: 50.00 [20.00, 80.00] ms; "
                "H3 wins on 75% of pages",
            ]
        )
        assert _report().render() == expected

    def test_render_with_store_stats(self):
        report = _report(
            store=StoreStats(hits=3, misses=1, writes=1, resumed=2)
        )
        rendered = report.render()
        assert rendered.endswith(
            "  store: 3 hits / 1 misses (75% hit rate), 2 resumed, 1 written"
        )
        assert report.render(include_store=False) == _report().render()

    def test_render_without_store_has_no_store_line(self):
        assert "store:" not in _report().render()
