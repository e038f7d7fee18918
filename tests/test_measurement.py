"""Tests for the measurement harness: farm, probes, campaigns, consecutive."""

import random

import pytest

from repro.browser.browser import H2_ONLY, H3_ENABLED
from repro.events import EventLoop
from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    ConsecutivePlan,
    Probe,
    ProbeNetProfile,
    ServerFarm,
    default_vantage_points,
    execute,
)
from repro.web import GeneratorConfig, TopSitesGenerator


@pytest.fixture(scope="module")
def universe():
    return TopSitesGenerator(GeneratorConfig(n_sites=8)).generate(seed=21)


class TestServerFarm:
    def test_lazy_instantiation(self, universe):
        farm = ServerFarm(EventLoop(), universe.hosts)
        assert len(farm._servers) == 0
        host = next(iter(universe.hosts))
        server = farm.server(host)
        assert server.hostname == host
        assert farm.server(host) is server  # cached

    def test_path_shared_per_host(self, universe):
        farm = ServerFarm(EventLoop(), universe.hosts)
        host = next(iter(universe.hosts))
        assert farm.path(host) is farm.path(host)

    def test_netem_overlay_scales_rtt(self, universe):
        profile = ProbeNetProfile(rtt_scale=2.0, extra_delay_ms=5.0)
        host = next(iter(universe.hosts.values()))
        netem = profile.netem_for(host)
        assert netem.delay_ms == pytest.approx(host.base_rtt_ms + 5.0)

    def test_warm_caches_seeds_popular_objects(self, universe):
        farm = ServerFarm(EventLoop(), universe.hosts)
        farm.warm_caches(universe.pages)
        page = universe.pages[0]
        popular_cdn = [r for r in page.cdn_resources if r.popular]
        assert popular_cdn, "expected popular CDN resources"
        resource = popular_cdn[0]
        assert resource.url in farm.server(resource.host).cache

    def test_clear_caches(self, universe):
        farm = ServerFarm(EventLoop(), universe.hosts)
        farm.warm_caches(universe.pages)
        page = universe.pages[0]
        resource = [r for r in page.cdn_resources if r.popular][0]
        farm.clear_caches()
        assert resource.url not in farm.server(resource.host).cache


class TestVantagePoints:
    def test_paper_sites(self):
        vps = default_vantage_points()
        assert [vp.name for vp in vps] == ["utah", "wisconsin", "clemson"]
        assert all(vp.n_probes == 3 for vp in vps)

    def test_profiles_differ(self):
        vps = default_vantage_points()
        profiles = {vp.net_profile() for vp in vps}
        assert len(profiles) == 3

    def test_netem_loss_passes_through(self):
        vp = default_vantage_points()[0]
        assert vp.net_profile(loss_rate=0.01).loss_rate == 0.01


class TestProbe:
    def test_double_visit_warms_second_measurement(self, universe):
        """First visit pays origin fetches; the warm second visit has
        strictly more cache hits.  (PLT can shift a little either way:
        a warm visit is burstier and can queue longer on the access
        link, matching the paper's 'no significant difference'.)"""
        probe = Probe("p0", universe, seed=1)
        page = universe.pages[1]
        browser = probe.browsers[H2_ONLY]
        browser.clear_session_state()
        first = browser.visit(page)
        browser.clear_session_state()
        second = browser.visit(page)
        assert second.plt_ms <= first.plt_ms * 1.15 + 50.0
        hits_first = sum(1 for e in first.entries if e.cache_hit)
        hits_second = sum(1 for e in second.entries if e.cache_hit)
        assert hits_second >= hits_first

    def test_measure_page_returns_last_visit(self, universe):
        probe = Probe("p0", universe, seed=1)
        visit = probe.measure_page(universe.pages[1], H3_ENABLED, visits=2)
        # Second visit: every CDN entry should be a cache hit.
        cdn_entries = [e for e in visit.entries if e.is_cdn]
        assert cdn_entries
        assert all(e.cache_hit for e in cdn_entries)

    def test_measure_page_clears_tickets_between_visits(self, universe):
        probe = Probe("p0", universe, seed=1)
        visit = probe.measure_page(universe.pages[1], H3_ENABLED, visits=2)
        assert visit.har.resumed_connection_count() == 0

    def test_invalid_visits_rejected(self, universe):
        probe = Probe("p0", universe, seed=1)
        with pytest.raises(ValueError):
            probe.measure_page(universe.pages[0], H2_ONLY, visits=0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self, universe):
        return execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=universe.pages[:5]
        ))

    def test_one_paired_visit_per_page(self, result):
        assert len(result.paired_visits) == 5
        assert result.pages_measured == 5

    def test_both_modes_recorded(self, result):
        for pv in result.paired_visits:
            assert pv.h2.protocol_mode == H2_ONLY
            assert pv.h3.protocol_mode == H3_ENABLED
            assert len(pv.h2.entries) == len(pv.h3.entries)

    def test_plt_reduction_definition(self, result):
        pv = result.paired_visits[0]
        assert pv.plt_reduction_ms == pv.h2.plt_ms - pv.h3.plt_ms

    def test_entries_iterator_counts(self, result):
        h2_entries = list(result.entries(H2_ONLY))
        expected = sum(pv.page.total_requests for pv in result.paired_visits)
        assert len(h2_entries) == expected

    def test_unknown_mode_rejected(self, result):
        with pytest.raises(ValueError):
            result.visits("h9")

    def test_multiple_probes_multiply_visits(self, universe):
        config = CampaignConfig(probes_per_vantage=2, max_vantage_points=1, seed=3)
        result = execute(CampaignPlan(universe, sim=config, pages=universe.pages[:2]))
        assert len(result.paired_visits) == 4
        assert {pv.probe_name for pv in result.paired_visits} == {"utah-0", "utah-1"}

    def test_h3_wins_on_average(self, result):
        """Aggregate sanity: across pages, H3 should reduce PLT."""
        reductions = [pv.plt_reduction_ms for pv in result.paired_visits]
        assert sum(reductions) / len(reductions) > 0


class TestConsecutiveVisits:
    def test_resumption_accumulates_across_pages(self, universe):
        run = execute(ConsecutivePlan(
            universe, pages=universe.pages, modes=(H3_ENABLED,),
            sim=CampaignConfig(seed=5),
        ))
        resumed = run.resumed_connections()
        # The first page can resume nothing; later pages share giant
        # providers with earlier ones and must resume something.
        assert resumed[0] == 0
        assert sum(resumed[1:]) > 0

    def test_tickets_disabled_kills_resumption(self, universe):
        run = execute(ConsecutivePlan(
            universe, pages=universe.pages[:4], modes=(H3_ENABLED,),
            sim=CampaignConfig(seed=5, use_session_tickets=False),
        ))
        assert sum(run.resumed_connections()) == 0

    def test_both_modes_by_default(self, universe):
        h2_run, h3_run = execute(ConsecutivePlan(
            universe, pages=universe.pages[:3], sim=CampaignConfig(seed=5)
        ))
        assert h2_run.mode == H2_ONLY
        assert h3_run.mode == H3_ENABLED
        assert len(h2_run.visits) == len(h3_run.visits) == 3

    def test_unknown_mode_rejected(self, universe):
        plan = ConsecutivePlan(
            universe, pages=universe.pages[:2], modes=("h9",),
            sim=CampaignConfig(seed=5),
        )
        with pytest.raises(ValueError):
            execute(plan)

    def test_consecutive_h3_beats_h2_more_with_shared_providers(self, universe):
        """Directional check for the Fig. 8 mechanism: on the pages
        after the first, H3's 0-RTT resumption should produce a PLT
        advantage over H2's 1-RTT resumption."""
        h2_run, h3_run = execute(ConsecutivePlan(
            universe, pages=universe.pages[:6], sim=CampaignConfig(seed=5)
        ))
        later_reductions = [
            h2.plt_ms - h3.plt_ms
            for h2, h3 in zip(h2_run.visits[1:], h3_run.visits[1:])
        ]
        assert sum(later_reductions) / len(later_reductions) > 0
