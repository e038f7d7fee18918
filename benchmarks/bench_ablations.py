"""Ablation benches for the design choices called out in DESIGN.md.

Each ablation disables one mechanism and shows the corresponding paper
effect disappearing, demonstrating the mechanism is load-bearing:

* transport HoL semantics  → Fig. 9's H3 edge under loss
* 0-RTT session resumption → Fig. 8's consecutive-visit speedup
* H3 server CPU overhead   → Fig. 6(b)'s negative wait median
* TLS 1.3 early data       → H2 resumption latency (off by default,
  as in real browsers)
"""

import random

import pytest
from conftest import run_once

from repro.browser.browser import H3_ENABLED
from repro.core.groups import phase_reduction_distributions
from repro.events import EventLoop
from repro.measurement import CampaignConfig, CampaignPlan, ConsecutivePlan, execute
from repro.netsim import NetemProfile, NetworkPath, PacketKind
from repro.transport import QuicConnection, TcpConnection, TransportConfig
from repro.web import GeneratorConfig, TopSitesGenerator


@pytest.fixture(scope="module")
def small_universe():
    return TopSitesGenerator(GeneratorConfig(n_sites=25)).generate(seed=5)


def test_ablation_hol_blocking(benchmark):
    """Under identical single-packet loss, TCP delays the unrelated
    stream by about one RTT; QUIC does not.  This per-connection gap is
    the mechanism behind Fig. 9."""

    def run(cls):
        loop = EventLoop()
        path = NetworkPath(
            loop, NetemProfile(delay_ms=15.0, rate_mbps=None), rng=random.Random(0)
        )
        state = {"dropped": False}

        def drop_first_stream1_data(pkt):
            if (
                not state["dropped"]
                and pkt.kind is PacketKind.DATA
                and pkt.chunks
                and pkt.chunks[0].stream_id == 1
            ):
                state["dropped"] = True
                return True
            return False

        path.downlink.drop_filter = drop_first_stream1_data
        conn = cls(loop, path)
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        s1 = conn.request(400, 5000)
        s2 = conn.request(400, 5000)
        loop.run_until(lambda: s1.complete and s2.complete)
        return s2.t_complete - s2.opened_at

    def both():
        return run(TcpConnection), run(QuicConnection)

    tcp_time, quic_time = run_once(benchmark, both)
    print(f"\nunrelated-stream completion: tcp={tcp_time:.1f}ms quic={quic_time:.1f}ms")
    assert tcp_time > quic_time + 20.0  # ~1 RTT of HoL stall


def test_ablation_zero_rtt_resumption(benchmark, small_universe):
    """Disabling session tickets must collapse Fig. 8(b) to zero and
    shrink the consecutive-visit PLT advantage."""

    def walk(tickets):
        run = execute(ConsecutivePlan(
            small_universe,
            pages=small_universe.pages,
            modes=(H3_ENABLED,),
            seed=5,
            use_session_tickets=tickets,
        ))
        return sum(run.resumed_connections()), sum(v.plt_ms for v in run.visits)

    def both():
        return walk(True), walk(False)

    (resumed_on, plt_on), (resumed_off, plt_off) = run_once(benchmark, both)
    print(f"\nresumed: with tickets={resumed_on}, without={resumed_off}")
    assert resumed_off == 0
    assert resumed_on > 100
    assert plt_on < plt_off  # 0-RTT makes the whole walk faster


def test_ablation_h3_compute_overhead(benchmark, small_universe):
    """Zeroing the H3 server CPU overhead flips Fig. 6(b)'s wait median
    from negative to ~non-negative."""

    def median_wait(h3_overhead):
        config = GeneratorConfig(
            n_sites=25,
            h3_overhead_range_ms=(h3_overhead, h3_overhead + 1e-6),
        )
        universe = TopSitesGenerator(config).generate(seed=5)
        result = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=5), pages=universe.pages[:15]
        ))
        dists = phase_reduction_distributions(result)
        return dists["wait"].median

    def both():
        return median_wait(4.0), median_wait(0.0)

    with_overhead, without_overhead = run_once(benchmark, both)
    print(f"\nwait-median: overhead=4ms -> {with_overhead:.2f}ms, 0ms -> {without_overhead:.2f}ms")
    assert with_overhead < 0.0
    assert without_overhead > with_overhead


def test_ablation_tls13_early_data(benchmark):
    """With TCP early data enabled, resumed H2 saves the TLS round trip
    (1 RTT total); browsers ship with it off (2 RTT)."""

    def resumed_connect(early_data):
        loop = EventLoop()
        path = NetworkPath(
            loop, NetemProfile(delay_ms=15.0, rate_mbps=None), rng=random.Random(0)
        )
        conn = TcpConnection(
            loop,
            path,
            config=TransportConfig(tls13_early_data=early_data),
            resumed=True,
        )
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        return done[0].connect_ms

    def both():
        return resumed_connect(False), resumed_connect(True)

    off, on = run_once(benchmark, both)
    print(f"\nresumed H2 connect: early-data off={off:.0f}ms on={on:.0f}ms")
    assert off == pytest.approx(60.0)
    assert on == pytest.approx(30.0)
