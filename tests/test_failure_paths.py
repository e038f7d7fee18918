"""Failure-injection and teardown-path tests."""

import random

import pytest

from repro.cdn import OriginServer
from repro.events import EventLoop
from repro.http import ConnectionPool, HttpProtocol
from repro.netsim import NetemProfile, NetworkPath, PacketKind
from repro.transport import QuicConnection, TcpConnection, TransportConfig, TransportError
from tests.test_http_pool import fetch_one

RTT = 30.0


def make_path(loop, loss=0.0, seed=0):
    return NetworkPath(loop, NetemProfile(delay_ms=RTT / 2, loss_rate=loss,
                                          rate_mbps=None),
                       rng=random.Random(seed))


class TestConnectionTeardown:
    def test_close_stops_all_timers(self):
        loop = EventLoop()
        conn = QuicConnection(loop, make_path(loop))
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        conn.request(400, 50_000)
        conn.close()
        # Draining the loop must terminate (no armed timers rescheduling).
        loop.run(max_events=100_000)
        assert conn.closed

    def test_closed_connection_rejects_requests(self):
        loop = EventLoop()
        conn = QuicConnection(loop, make_path(loop), resumed=True)
        conn.connect(lambda r: None)
        conn.close()
        with pytest.raises(TransportError):
            conn.request(400, 1000)

    def test_close_before_connect_is_safe(self):
        loop = EventLoop()
        conn = TcpConnection(loop, make_path(loop))
        conn.close()
        loop.run()
        assert conn.closed

    def test_closed_handshake_failing_late_stays_swallowed(self):
        """A reply in flight at close restarts the handshake flights of
        the closed connection.  Should those run out of retries, the
        failure must not escape the event loop: the owner opted into a
        failure callback, and close() dropped it for a no-op."""
        loop = EventLoop()
        path = make_path(loop)
        conn = TcpConnection(
            loop, path, config=TransportConfig(max_handshake_retries=2)
        )
        failures = []
        conn.connect(lambda result: None, on_failed=failures.append)
        assert conn._hs_total > 1
        loop.run(until_ms=RTT - 1.0)  # the first reply is in flight
        conn.close()
        path.uplink.drop_filter = lambda pkt: True
        loop.run()
        assert conn._hs_retries > 2  # the late flights did run out
        assert failures == []
        assert not conn.established


class TestRequestLossExhaustion:
    def test_request_gives_up_after_max_retries(self):
        loop = EventLoop()
        path = make_path(loop)
        conn = QuicConnection(
            loop, path, config=TransportConfig(max_request_retries=2)
        )
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        # Black-hole all request (client->server) data packets.
        path.uplink.drop_filter = lambda pkt: pkt.kind is PacketKind.DATA
        conn.request(400, 1000)
        with pytest.raises(TransportError, match="request packet lost"):
            loop.run()

    def test_duplicate_request_packets_are_idempotent(self):
        """A retransmitted request that races its original must not
        trigger a second response."""
        loop = EventLoop()
        path = make_path(loop)
        # Delay, don't drop: force a timeout-driven duplicate by using
        # a tiny RTO relative to the RTT.
        conn = QuicConnection(
            loop, path,
            config=TransportConfig(initial_rto_ms=5.0, min_rto_ms=1.0),
        )
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        stream = conn.request(400, 3000)
        loop.run_until(lambda: stream.complete)
        assert stream.received == 3000  # exactly once despite duplicates


class TestPoolUnderLoss:
    def test_h1_queue_survives_loss(self):
        loop = EventLoop()
        origin = OriginServer("legacy.example", supports_h2=False,
                              base_think_ms=5.0)
        pool = ConnectionPool(loop, rng=random.Random(3))
        path = make_path(loop, loss=0.05, seed=9)
        records = []
        for i in range(10):
            fetch_one(pool, origin, path, HttpProtocol.H1,
                      f"https://legacy.example/r{i}", 400, 3000, records.append)
        loop.run_until(lambda: len(records) == 10)
        assert all(r.response_bytes == 3000 for r in records)

    def test_multiplexed_fetches_survive_heavy_loss(self):
        from repro.cdn import EdgeServer, get_provider

        loop = EventLoop()
        edge = EdgeServer("assets.fastly.net", get_provider("fastly"),
                          resumption_rate=1.0)
        pool = ConnectionPool(loop, rng=random.Random(4))
        path = make_path(loop, loss=0.15, seed=10)
        records = []
        for i in range(8):
            fetch_one(pool, edge, path, HttpProtocol.H3,
                      f"https://assets.fastly.net/r{i}", 400, 8000,
                      records.append)
        loop.run_until(lambda: len(records) == 8)
        assert len({r.url for r in records}) == 8

    def test_handshake_black_hole_raises(self):
        loop = EventLoop()
        path = make_path(loop)
        path.uplink.drop_filter = lambda pkt: True
        conn = TcpConnection(
            loop, path, config=TransportConfig(max_handshake_retries=2)
        )
        conn.connect(lambda r: None)
        with pytest.raises(TransportError, match="handshake failed"):
            loop.run()


class TestH1QueueWhenTheHostFails:
    """H1 fetches queued behind a host's six connections still get a
    record when every one of those fetches runs out of retries."""

    @staticmethod
    def run_ten_h1_fetches(event):
        from repro.faults import FaultInjector
        from repro.faults.profile import FaultProfile

        loop = EventLoop()
        origin = OriginServer("h1.example", supports_h2=False, supports_h3=False)
        faults = FaultInjector(FaultProfile(events=(event,)), loop)
        pool = ConnectionPool(loop, faults=faults)
        path = make_path(loop)
        records = []
        for i in range(10):
            fetch_one(pool, origin, path, HttpProtocol.H1,
                      f"https://h1.example/r{i}", 400, 5000, records.append)
        loop.run()
        return pool, records

    @pytest.mark.parametrize("kind", ["blackout", "edge_outage", "connection_reset"])
    def test_every_fetch_fails_with_a_record(self, kind):
        from repro.faults.profile import FaultEvent

        pool, records = self.run_ten_h1_fetches(
            FaultEvent(kind, hosts=("h1.example",))
        )
        assert len(records) == 10
        assert all(record.failed for record in records)
        assert sorted(r.url for r in records) == sorted(
            f"https://h1.example/r{i}" for i in range(10)
        )
        assert pool.stats.failed_requests == 10

    def test_a_blackout_that_lifts_completes_every_fetch(self):
        from repro.faults.profile import FaultEvent

        pool, records = self.run_ten_h1_fetches(
            FaultEvent("blackout", end_ms=5000.0, hosts=("h1.example",))
        )
        assert len(records) == 10
        assert not any(record.failed for record in records)
        assert pool.stats.failed_requests == 0
