"""Strict delivery-order invariants for both transports.

These instrument the receiver-side delivery hook to assert the defining
contracts directly: QUIC delivers every stream's bytes in stream order;
TCP additionally delivers across streams in connection order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventLoop
from repro.netsim import NetemProfile, NetworkPath
from repro.transport import QuicConnection, TcpConnection


class _Recorder:
    """Wraps a connection to record chunk delivery order."""

    def __init__(self, conn):
        self.deliveries = []  # (stream_id, offset, size)
        original = conn._deliver_chunk

        def wrapped(chunk):
            self.deliveries.append((chunk.stream_id, chunk.offset, chunk.size))
            original(chunk)

        conn._deliver_chunk = wrapped


def run_transfer(cls, seed, loss, sizes):
    loop = EventLoop()
    path = NetworkPath(
        loop, NetemProfile(delay_ms=15.0, loss_rate=loss, rate_mbps=50.0),
        rng=random.Random(seed),
    )
    conn = cls(loop, path)
    recorder = _Recorder(conn)
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    streams = [conn.request(400, size) for size in sizes]
    loop.run_until(lambda: all(s.complete for s in streams))
    return recorder.deliveries


@given(
    seed=st.integers(min_value=0, max_value=3000),
    loss=st.sampled_from([0.0, 0.03, 0.1]),
    sizes=st.lists(st.integers(min_value=500, max_value=30_000),
                   min_size=2, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_quic_delivers_each_stream_in_order(seed, loss, sizes):
    deliveries = run_transfer(QuicConnection, seed, loss, sizes)
    next_offset: dict[int, int] = {}
    for stream_id, offset, size in deliveries:
        assert offset == next_offset.get(stream_id, 0), (
            f"stream {stream_id} delivered offset {offset} out of order"
        )
        next_offset[stream_id] = offset + size


@given(
    seed=st.integers(min_value=0, max_value=3000),
    loss=st.sampled_from([0.0, 0.03, 0.1]),
    sizes=st.lists(st.integers(min_value=500, max_value=30_000),
                   min_size=2, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_tcp_delivers_in_stream_order_too(seed, loss, sizes):
    """TCP's connection-order delivery implies per-stream order."""
    deliveries = run_transfer(TcpConnection, seed, loss, sizes)
    next_offset: dict[int, int] = {}
    for stream_id, offset, size in deliveries:
        assert offset == next_offset.get(stream_id, 0)
        next_offset[stream_id] = offset + size


def test_tcp_delivery_follows_connection_byte_order():
    """Under an injected loss, TCP must deliver strictly in the order
    bytes were sent on the connection — never releasing later data
    around a gap."""
    loop = EventLoop()
    path = NetworkPath(
        loop, NetemProfile(delay_ms=15.0, rate_mbps=None), rng=random.Random(0)
    )
    from repro.netsim import PacketKind

    state = {"n": 0}

    def drop_third_data(pkt):
        if pkt.kind is PacketKind.DATA:
            state["n"] += 1
            return state["n"] == 3
        return False

    path.downlink.drop_filter = drop_third_data
    sent_order = []
    send_to_client = path.send_to_client

    def record_send(pkt, on_deliver):
        # Every first transmission of response data, in send order
        # (recorded on the path, which both transport cores call).
        if pkt.kind is PacketKind.DATA and not pkt.retransmission:
            sent_order.extend((c.stream_id, c.offset) for c in pkt.chunks)
        return send_to_client(pkt, on_deliver)

    path.send_to_client = record_send
    conn = TcpConnection(loop, path)
    recorder = _Recorder(conn)
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    streams = [conn.request(400, 9000) for _ in range(2)]
    loop.run_until(lambda: all(s.complete for s in streams))
    delivered_order = [(sid, off) for sid, off, __ in recorder.deliveries]
    assert delivered_order == sent_order  # exact connection order

def test_quic_can_deliver_around_a_gap():
    """The defining contrast: with a loss on stream 1, QUIC delivers
    stream 2's chunks before the retransmission arrives."""
    loop = EventLoop()
    path = NetworkPath(
        loop, NetemProfile(delay_ms=15.0, rate_mbps=None), rng=random.Random(0)
    )
    from repro.netsim import PacketKind

    state = {"dropped": False}

    def drop_first_s1(pkt):
        if (pkt.kind is PacketKind.DATA and not state["dropped"]
                and pkt.chunks[0].stream_id == 1):
            state["dropped"] = True
            return True
        return False

    path.downlink.drop_filter = drop_first_s1
    conn = QuicConnection(loop, path)
    recorder = _Recorder(conn)
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    s1 = conn.request(400, 6000)
    s2 = conn.request(400, 6000)
    loop.run_until(lambda: s1.complete and s2.complete)
    first_s1 = next(i for i, d in enumerate(recorder.deliveries) if d[0] == 1)
    s2_before_s1 = [d for d in recorder.deliveries[:first_s1] if d[0] == 2]
    assert s2_before_s1, "stream 2 should deliver before stream 1's retransmission"
