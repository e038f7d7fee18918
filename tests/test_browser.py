"""Tests for the browser, HAR capture, and the QUIC-broken host memory."""

import random

import pytest

from repro.browser import Browser, BrowserConfig
from repro.browser.browser import H2_ONLY, H3_ENABLED
from repro.events import EventLoop
from repro.http import AltSvcCache
from repro.http.alt_svc import BROKEN_TTL_MS
from repro.measurement import ProbeNetProfile, ServerFarm
from repro.web import GeneratorConfig, TopSitesGenerator


@pytest.fixture(scope="module")
def universe():
    return TopSitesGenerator(GeneratorConfig(n_sites=6)).generate(seed=11)


def make_browser(universe, mode=H3_ENABLED, **config_kwargs):
    loop = EventLoop()
    farm = ServerFarm(loop, universe.hosts, ProbeNetProfile(), rng=random.Random(3))
    farm.warm_caches(universe.pages)
    browser = Browser(
        loop, farm, BrowserConfig(protocol_mode=mode, **config_kwargs),
        rng=random.Random(4),
    )
    return browser


class TestPageVisit:
    def test_visit_loads_every_resource(self, universe):
        page = universe.pages[4]
        visit = make_browser(universe).visit(page)
        assert len(visit.entries) == page.total_requests

    def test_plt_positive_and_entries_within_plt(self, universe):
        page = universe.pages[4]
        visit = make_browser(universe).visit(page)
        assert visit.plt_ms > 0
        start = visit.har.started_at_ms
        for entry in visit.entries:
            assert entry.started_at_ms >= start
            end = entry.started_at_ms + entry.time_ms
            assert end <= start + visit.plt_ms + 1e-6

    def test_h2_only_mode_never_uses_h3(self, universe):
        visit = make_browser(universe, mode=H2_ONLY).visit(universe.pages[4])
        protocols = {entry.protocol for entry in visit.entries}
        assert "h3" not in protocols
        assert "h2" in protocols

    def test_h3_enabled_uses_h3_on_capable_hosts(self, universe):
        page = universe.pages[4]
        visit = make_browser(universe, mode=H3_ENABLED).visit(page)
        h3_hosts = {e.host for e in visit.entries if e.protocol == "h3"}
        expected = {
            r.host for r in page.all_resources if universe.hosts[r.host].supports_h3
        }
        assert h3_hosts == expected

    def test_h1_only_servers_use_http11(self, universe):
        for page in universe.pages:
            h1_hosts = {
                r.host for r in page.all_resources if universe.hosts[r.host].h1_only
            }
            if h1_hosts:
                visit = make_browser(universe).visit(page)
                protocols = {
                    e.host: e.protocol for e in visit.entries if e.host in h1_hosts
                }
                assert set(protocols.values()) == {"http/1.1"}
                return
        pytest.skip("universe has no H1-only hosts")

    def test_h3_plt_beats_h2_on_h3_heavy_page(self, universe):
        # youtube.com: every host speaks H3.
        page = universe.pages[0]
        h2 = make_browser(universe, mode=H2_ONLY).visit(page)
        h3 = make_browser(universe, mode=H3_ENABLED).visit(page)
        assert h3.plt_ms < h2.plt_ms

    def test_cdn_classification_matches_ground_truth(self, universe):
        page = universe.pages[4]
        visit = make_browser(universe).visit(page)
        truth = {r.url: r.provider_name for r in page.all_resources}
        for entry in visit.entries:
            assert entry.is_cdn == (truth[entry.url] is not None)
            if entry.is_cdn:
                assert entry.provider == truth[entry.url]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="protocol_mode"):
            BrowserConfig(protocol_mode="h9-only")

    def test_reused_flag_consistent_with_connect_time(self, universe):
        visit = make_browser(universe).visit(universe.pages[4])
        for entry in visit.entries:
            if entry.reused:
                assert entry.timings.connect == 0.0
            else:
                assert not entry.resumed or entry.timings.connect == 0.0

    def test_wave1_resources_start_after_blocking_wave0(self, universe):
        from repro.web.resource import ResourceType

        page = universe.pages[4]
        blocking = {
            r.url
            for r in page.resources
            if r.wave == 0 and r.rtype in (ResourceType.CSS, ResourceType.JS)
        }
        wave1 = {r.url for r in page.resources if r.wave == 1}
        if not blocking or not wave1:
            pytest.skip("page lacks a wave structure")
        visit = make_browser(universe).visit(page)
        by_url = {e.url: e for e in visit.entries}
        last_blocking_done = max(
            by_url[url].started_at_ms + by_url[url].time_ms for url in blocking
        )
        for url in wave1:
            assert by_url[url].started_at_ms >= last_blocking_done - 1e-6


class TestSessionPersistence:
    def test_tickets_persist_across_visits(self, universe):
        browser = make_browser(universe)
        page = universe.pages[4]
        first = browser.visit(page)
        assert first.har.resumed_connection_count() == 0
        second = browser.visit(page)  # no clear_session_state between
        assert second.har.resumed_connection_count() > 0

    def test_clear_session_state_resets_resumption(self, universe):
        browser = make_browser(universe)
        page = universe.pages[4]
        browser.visit(page)
        browser.clear_session_state()
        visit = browser.visit(page)
        assert visit.har.resumed_connection_count() == 0


class TestAltSvc:
    def test_expiry_boundary_is_exclusive(self):
        """A host marked at t is demoted strictly before t + TTL and not
        at it; an expired mark is dropped, not just hidden."""
        cache = AltSvcCache()
        cache.mark_h3_broken("x.example", now_ms=500.0)
        assert cache.h3_broken("x.example", now_ms=500.0 + BROKEN_TTL_MS - 0.001)
        assert not cache.h3_broken("x.example", now_ms=500.0 + BROKEN_TTL_MS)
        assert "x.example" not in cache._broken_until

    def test_mark_h3_broken_expires(self):
        cache = AltSvcCache()
        cache.mark_h3_broken("x.example", now_ms=10.0)
        assert BROKEN_TTL_MS == 60_000.0
        assert cache.h3_broken("x.example", now_ms=60_009.0)
        assert not cache.h3_broken("x.example", now_ms=60_010.0)
        assert not cache.h3_broken("other.example", now_ms=11.0)

    def test_clear_forgets_broken_marks(self):
        cache = AltSvcCache()
        cache.mark_h3_broken("x.example", now_ms=0.0)
        cache.clear()
        assert not cache.h3_broken("x.example", now_ms=1.0)

    def test_broken_host_goes_over_tcp(self, universe):
        """A host marked broken is reached over H2 until the mark expires;
        the other H3-capable hosts stay on H3."""
        page = universe.pages[0]  # youtube: all hosts H3-capable
        browser = make_browser(universe)
        html_host = page.html.host
        browser.alt_svc.mark_h3_broken(html_host, browser.loop.now)
        visit = browser.visit(page)
        assert {e.protocol for e in visit.entries if e.host == html_host} == {"h2"}
        assert {e.protocol for e in visit.entries if e.host != html_host} == {"h3"}


class TestHarRendering:
    def test_har_dict_round_trip(self, universe):
        visit = make_browser(universe).visit(universe.pages[4])
        doc = visit.har.to_dict()
        assert doc["log"]["version"] == "1.2"
        assert doc["log"]["pages"][0]["pageTimings"]["onLoad"] == visit.plt_ms
        assert len(doc["log"]["entries"]) == len(visit.entries)
        entry = doc["log"]["entries"][0]
        assert {"blocked", "connect", "ssl", "wait", "receive"} <= set(entry["timings"])

    def test_har_is_json_serializable(self, universe):
        import json

        visit = make_browser(universe).visit(universe.pages[5])
        json.dumps(visit.har.to_dict())
