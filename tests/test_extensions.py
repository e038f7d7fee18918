"""Tests for extension features beyond the paper's core evaluation:
global vantage points, CUBIC end-to-end, bursty loss, TLS1.2 lanes,
and pool/browser edge cases."""

import random

import pytest

from repro.browser import Browser, BrowserConfig
from repro.browser.browser import H2_ONLY, H3_ENABLED
from repro.events import EventLoop
from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    Probe,
    ProbeNetProfile,
    ServerFarm,
    execute,
    global_vantage_points,
)
from repro.netsim import NetemProfile, NetworkPath
from repro.transport import QuicConnection, TcpConnection, TlsVersion, TransportConfig
from repro.web import GeneratorConfig, TopSitesGenerator
from tests.test_http_pool import fetch_one


@pytest.fixture(scope="module")
def universe():
    return TopSitesGenerator(GeneratorConfig(n_sites=6)).generate(seed=31)


class TestGlobalVantagePoints:
    def test_six_regions(self):
        vps = global_vantage_points()
        assert len(vps) == 6
        assert {vp.name for vp in vps} >= {"utah", "frankfurt", "singapore"}

    def test_remote_regions_are_farther(self):
        by_name = {vp.name: vp for vp in global_vantage_points()}
        assert by_name["singapore"].rtt_scale > by_name["utah"].rtt_scale
        assert by_name["saopaulo"].extra_delay_ms > by_name["frankfurt"].extra_delay_ms

    def test_remote_probe_sees_slower_pages(self, universe):
        def plt_from(vp_name):
            vp = {v.name: v for v in global_vantage_points()}[vp_name]
            probe = Probe("p", universe, net_profile=vp.net_profile(), seed=3)
            return probe.measure_page(universe.pages[1], H2_ONLY, visits=1).plt_ms

        assert plt_from("singapore") > plt_from("utah")

    def test_campaign_over_global_vantage_points(self, universe):
        result = execute(CampaignPlan(
            universe,
            sim=CampaignConfig(seed=4, max_vantage_points=None),
            pages=universe.pages[:1],
            vantage_points=global_vantage_points(),
        ))
        assert len(result.paired_visits) == 6  # one probe per region


class TestCubicEndToEnd:
    def test_campaign_runs_with_cubic(self, universe):
        config = CampaignConfig(
            seed=5, transport_config=TransportConfig(congestion_control="cubic")
        )
        result = execute(CampaignPlan(universe, sim=config, pages=universe.pages[:2]))
        assert len(result.paired_visits) == 2
        for pv in result.paired_visits:
            assert pv.h2.plt_ms > 0 and pv.h3.plt_ms > 0

    def test_cubic_transfer_under_loss(self):
        loop = EventLoop()
        path = NetworkPath(
            loop,
            NetemProfile(delay_ms=15.0, loss_rate=0.03, rate_mbps=50.0),
            rng=random.Random(3),
        )
        conn = QuicConnection(
            loop, path, config=TransportConfig(congestion_control="cubic")
        )
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        stream = conn.request(400, 150_000)
        loop.run_until(lambda: stream.complete)
        assert stream.received == 150_000
        assert conn.cc.loss_events > 0


class TestBurstyLoss:
    def test_probe_profile_plumbs_bursty_loss(self, universe):
        profile = ProbeNetProfile(loss_rate=0.02, bursty_loss=True)
        host = next(iter(universe.hosts.values()))
        netem = profile.netem_for(host)
        assert netem.bursty_loss
        assert netem.loss_rate == 0.02

    def test_page_loads_under_bursty_loss(self, universe):
        loop = EventLoop()
        farm = ServerFarm(
            loop,
            universe.hosts,
            ProbeNetProfile(loss_rate=0.02, bursty_loss=True),
            rng=random.Random(6),
        )
        farm.warm_caches(universe.pages)
        browser = Browser(loop, farm, BrowserConfig(), rng=random.Random(7))
        visit = browser.visit(universe.pages[4])
        assert len(visit.entries) == universe.pages[4].total_requests


class TestTls12Lane:
    def test_tls12_handshake_slower_end_to_end(self):
        def connect_time(tls_version):
            loop = EventLoop()
            path = NetworkPath(
                loop, NetemProfile(delay_ms=15.0, rate_mbps=None),
                rng=random.Random(0),
            )
            conn = TcpConnection(loop, path, tls_version=tls_version)
            done = []
            conn.connect(done.append)
            loop.run_until(lambda: bool(done))
            return done[0].connect_ms

        assert connect_time(TlsVersion.TLS12) == pytest.approx(90.0)
        assert connect_time(TlsVersion.TLS13) == pytest.approx(60.0)

    def test_universe_contains_tls12_origins(self):
        universe = TopSitesGenerator(GeneratorConfig(n_sites=40)).generate(seed=1)
        origins = [h for h in universe.hosts.values() if h.kind == "origin"]
        tls12 = sum(1 for h in origins if h.tls_version is TlsVersion.TLS12)
        assert 0 < tls12 < len(origins)

    def test_edges_are_always_tls13(self):
        universe = TopSitesGenerator(GeneratorConfig(n_sites=40)).generate(seed=1)
        edges = [h for h in universe.hosts.values() if h.kind == "edge"]
        assert all(h.tls_version is TlsVersion.TLS13 for h in edges)


class TestHandshakeThrottle:
    def test_many_connections_queue_handshakes(self, universe):
        """With a tiny handshake budget, openers must wait (blocked)."""
        from repro.cdn import OriginServer
        from repro.http import ConnectionPool, HttpProtocol

        loop = EventLoop()
        config = TransportConfig(max_concurrent_handshakes=1)
        pool = ConnectionPool(loop, transport_config=config)
        records = []
        for index in range(3):
            server = OriginServer(f"host{index}.example", base_think_ms=5.0)
            path = NetworkPath(
                loop, NetemProfile(delay_ms=15.0, rate_mbps=None),
                rng=random.Random(index),
            )
            fetch_one(pool, server, path, HttpProtocol.H2,
                      f"https://host{index}.example/", 400, 1000, records.append)
        loop.run_until(lambda: len(records) == 3)
        blocked = sorted(r.timings.blocked for r in records)
        assert blocked[0] == 0.0
        assert blocked[1] >= 60.0  # waited for the first handshake
        assert blocked[2] >= 120.0

    def test_zero_rtt_bypasses_throttle(self):
        from repro.cdn import EdgeServer, get_provider
        from repro.http import ConnectionPool, HttpProtocol
        from repro.tls import SessionTicketCache

        loop = EventLoop()
        cache = SessionTicketCache()
        config = TransportConfig(max_concurrent_handshakes=1)
        # Distinct providers: same-provider fetches would coalesce onto
        # one connection and never need a second handshake.
        server_slow = EdgeServer(
            "slow.gstatic.com", get_provider("google"), resumption_rate=1.0
        )
        server_fast = EdgeServer(
            "fonts.gstatic.com", get_provider("quic_cloud"), resumption_rate=1.0
        )
        cache.store("fonts.gstatic.com", now_ms=0.0)

        def path(seed):
            return NetworkPath(
                loop, NetemProfile(delay_ms=15.0, rate_mbps=None),
                rng=random.Random(seed),
            )

        pool = ConnectionPool(loop, session_cache=cache, transport_config=config)
        records = []
        # Occupy the single handshake slot with a full H3 handshake,
        # then issue a 0-RTT fetch: it must not wait.
        fetch_one(pool, server_slow, path(1), HttpProtocol.H3,
                  "https://slow.gstatic.com/a", 400, 1000, records.append)
        fetch_one(pool, server_fast, path(2), HttpProtocol.H3,
                  "https://fonts.gstatic.com/b", 400, 1000, records.append)
        loop.run_until(lambda: len(records) == 2)
        zero_rtt = [r for r in records if r.host == "fonts.gstatic.com"][0]
        assert zero_rtt.resumed
        assert zero_rtt.timings.blocked == 0.0
        assert zero_rtt.timings.connect == 0.0
