"""Tests for weighted stream scheduling (H2/H3 priorities)."""

import random

from repro.events import EventLoop
from repro.netsim import NetemProfile, NetworkPath
from repro.transport import QuicConnection

RTT = 30.0


def make_conn(loop):
    path = NetworkPath(loop, NetemProfile(delay_ms=RTT / 2, rate_mbps=10.0),
                       rng=random.Random(0))
    conn = QuicConnection(loop, path)
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    return conn


class TestWeightedScheduling:
    def test_heavier_stream_finishes_first(self):
        """Two equal-size streams contending on one connection: the
        weight-4 stream must complete before the weight-1 stream."""
        loop = EventLoop()
        conn = make_conn(loop)
        heavy = conn.request(400, 80_000, weight=4)
        light = conn.request(400, 80_000, weight=1)
        loop.run_until(lambda: heavy.complete and light.complete)
        assert heavy.t_complete < light.t_complete

    def test_equal_weights_finish_together(self):
        loop = EventLoop()
        conn = make_conn(loop)
        a = conn.request(400, 80_000, weight=2)
        b = conn.request(400, 80_000, weight=2)
        loop.run_until(lambda: a.complete and b.complete)
        assert abs(a.t_complete - b.t_complete) < 25.0

    def test_weight_floor_is_one(self):
        loop = EventLoop()
        conn = make_conn(loop)
        stream = conn.request(400, 10_000, weight=0)  # clamped to 1
        loop.run_until(lambda: stream.complete)
        assert stream.received == 10_000

    def test_all_bytes_still_delivered(self):
        loop = EventLoop()
        conn = make_conn(loop)
        streams = [conn.request(400, 30_000, weight=w) for w in (1, 3, 5)]
        loop.run_until(lambda: all(s.complete for s in streams))
        assert all(s.received == 30_000 for s in streams)
