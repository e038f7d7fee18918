"""Ordering invariants the packet path's hot loops rely on.

The server side arms its probe timeout once per send burst and finds
threshold losses with a prefix scan of ``_inflight``.  Both are exact
only because of two invariants, checked here over lossy transfers that
exercise retransmissions and PTOs:

* ``_inflight`` keys are strictly ascending after every handler, so the
  lost packets are a prefix of it and the first key is the oldest;
* the prefix scan declares the same packets lost, in the same order, as
  a full scan of ``_inflight`` followed by ``sorted()``.

The pinned event counts below were taken before either mechanism
existed: the simulated behaviour must not have moved.

The audits override the loop's methods in a subclass, which only the
Python transport core dispatches through (the C core calls its own
methods directly), so the audited classes run on ``_PyTransportCore``;
the pinned counts are checked on both cores.  The C core keeps its
packets in flight in a ring (``_ckernel.Inflight``) instead of a dict;
its audits override the packet receivers, which the C core looks up on
the connection, and hold the ring to the same invariants on a lossy and
on a reordering path.
"""

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from repro.events import EventLoop
from repro.events.loop import _ckernel
from repro.netsim import NetemProfile, NetworkPath, PacketKind
from repro.netsim.packet import HEADER_BYTES, Packet, StreamChunk
from repro.transport import QuicConnection, TcpConnection
from tests.test_transport_core import python_core

RESPONSE_BYTES = 250_000


class _Audited:
    """Checks the ``_inflight`` invariants after every server/client
    handler, records what each loss scan declared and counts the PTO
    arms."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pto_starts = 0
        self.ack_packets = 0
        self.bursts = 0
        self.audits = 0
        self.declared_lost: list[int] = []

    def _audit(self) -> None:
        keys = list(self._inflight)
        assert all(a < b for a, b in zip(keys, keys[1:])), keys
        self.audits += 1

    def _server_on_packet(self, pkt):
        super()._server_on_packet(pkt)
        self._audit()

    def _server_on_ack(self, pkt):
        self.ack_packets += 1
        super()._server_on_ack(pkt)
        self._audit()

    def _server_enqueue_response(self, sstream):
        super()._server_enqueue_response(sstream)
        self._audit()

    def _client_on_packet_from_server(self, pkt):
        super()._client_on_packet_from_server(pkt)
        self._audit()

    def _on_pto(self):
        super()._on_pto()
        self._audit()

    def _arm_pto(self):
        self.pto_starts += 1
        super()._arm_pto()

    def _try_send(self):
        sent = super()._try_send()
        self.bursts += sent
        self._audit()
        return sent

    def _detect_losses(self):
        before = dict(self._inflight)
        cutoff = self._largest_acked - self.config.packet_threshold
        # The full scan the prefix scan replaced.
        full_scan = sorted(seq for seq in before if seq <= cutoff)
        queued = len(self._retx_queue)
        super()._detect_losses()
        declared = list(self._retx_queue)[queued:]
        assert declared == [
            (before[seq].chunks[0], before[seq].conn_start) for seq in full_scan
        ]
        assert [seq for seq in before if seq not in self._inflight] == full_scan
        self.declared_lost.extend(full_scan)


class AuditedTcp(_Audited, python_core(TcpConnection)):
    pass


class AuditedQuic(_Audited, python_core(QuicConnection)):
    pass


def lossy_transfer(conn_cls, loss=0.02, seed=1):
    """A 250 KB response over a 2%-loss path whose first copy of the
    final data packet is always dropped, forcing a tail-loss PTO."""
    loop = EventLoop()
    profile = NetemProfile(delay_ms=15.0, loss_rate=loss, rate_mbps=20.0)
    path = NetworkPath(loop, profile, rng=random.Random(seed))

    def drop_first_fin(pkt):
        return (
            pkt.kind is PacketKind.DATA
            and not pkt.retransmission
            and any(chunk.fin for chunk in pkt.chunks)
        )

    path.downlink.drop_filter = drop_first_fin
    conn = conn_cls(loop, path)
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    stream = conn.request(400, RESPONSE_BYTES)
    loop.run_until(lambda: stream.complete)
    assert stream.received == RESPONSE_BYTES
    return loop, conn


class TestInflightOrdering:
    @pytest.mark.parametrize("conn_cls", [AuditedTcp, AuditedQuic])
    def test_keys_ascend_after_every_handler(self, conn_cls):
        _, conn = lossy_transfer(conn_cls)
        # The transfer really exercised both recovery mechanisms.
        assert conn.stats.rto_events >= 1
        assert conn.stats.retransmissions > conn.stats.rto_events
        assert conn.audits > conn.stats.data_packets_sent

    @pytest.mark.parametrize("conn_cls", [AuditedTcp, AuditedQuic])
    def test_prefix_scan_matches_full_scan(self, conn_cls):
        _, conn = lossy_transfer(conn_cls)
        # Every threshold loss went through the audited comparison.
        assert conn.declared_lost
        assert len(conn.declared_lost) + conn.stats.rto_events == (
            conn.stats.data_packets_lost
        )

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("conn_cls", [AuditedTcp, AuditedQuic])
    def test_invariants_hold_under_heavier_loss(self, conn_cls, seed):
        _, conn = lossy_transfer(conn_cls, loss=0.05, seed=seed)
        assert conn.declared_lost


class _RingAudited:
    """The C core's audits.  Its loop calls none of the methods
    ``_Audited`` overrides, but it hands every packet to the receivers
    it looks up on the connection, so overriding those sees each
    delivery.  After each, the in-flight ring must read as the ascending
    dict it replaced and hold nothing a full loss scan would declare
    lost; after each ACK, the packets it let go must be the acked ones
    plus exactly the full scan's, and the burst that followed must have
    retransmitted those, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.audits = 0
        self.declared_lost: list[int] = []
        self.holes_seen = 0

    def _audit(self) -> None:
        ring = self._inflight
        keys = list(ring)
        assert all(a < b for a, b in zip(keys, keys[1:])), keys
        assert (len(ring), bool(ring)) == (len(keys), bool(keys))
        assert ring.keys() == keys == [seq for seq, _ in ring.items()]
        assert all(pkt.seq == seq and ring[seq] is pkt for seq, pkt in ring.items())
        assert self._bytes_in_flight == sum(pkt.size_bytes for _, pkt in ring.items())
        cutoff = self._largest_acked - self.config.packet_threshold
        assert all(seq > cutoff for seq in keys)
        if keys and keys[-1] - keys[0] + 1 > len(keys):
            self.holes_seen += 1
        self.audits += 1

    def _server_on_packet(self, pkt):
        before = dict(self._inflight.items())
        lost = self.stats.data_packets_lost
        super()._server_on_packet(pkt)
        if pkt.kind is PacketKind.ACK:
            acked = set(pkt.sack or (pkt.ack_seq,)) & set(before)
            cutoff = self._largest_acked - self.config.packet_threshold
            full_scan = sorted(
                seq for seq in before if seq not in acked and seq <= cutoff
            )
            let_go = [seq for seq in before if seq not in self._inflight]
            assert let_go == sorted(acked | set(full_scan))
            assert self.stats.data_packets_lost - lost == len(full_scan)
            newest = max(before, default=0)
            resent = [
                (sent.chunks[0], sent.conn_start)
                for seq, sent in self._inflight.items()
                if seq > newest and sent.retransmission
            ]
            assert resent == [
                (before[seq].chunks[0], before[seq].conn_start) for seq in full_scan
            ]
            self.declared_lost.extend(full_scan)
        self._audit()

    def _client_on_packet_from_server(self, pkt):
        super()._client_on_packet_from_server(pkt)
        self._audit()


class RingAuditedTcp(_RingAudited, TcpConnection):
    pass


class RingAuditedQuic(_RingAudited, QuicConnection):
    pass


def hold_back_every(path, every=7, hold_ms=4.0):
    """Reorder the path: every ``every``-th first transmission of data
    waits ``hold_ms`` before it goes onto the downlink, so the packets
    sent after it overtake it."""
    loop = path.downlink.loop
    send_to_client = path.send_to_client
    count = [0]

    def send(pkt, on_deliver):
        if pkt.kind is PacketKind.DATA and not pkt.retransmission:
            count[0] += 1
            if count[0] % every == 0:
                loop.call_later(hold_ms, send_to_client, pkt, on_deliver)
                return
        send_to_client(pkt, on_deliver)

    path.send_to_client = send


def reordering_transfer(conn_cls, seed=1):
    """The 250 KB response over a 1%-loss path that reorders data."""
    loop = EventLoop()
    profile = NetemProfile(delay_ms=15.0, loss_rate=0.01, rate_mbps=20.0)
    path = NetworkPath(loop, profile, rng=random.Random(seed))
    hold_back_every(path)
    conn = conn_cls(loop, path)
    done = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    stream = conn.request(400, RESPONSE_BYTES)
    loop.run_until(lambda: stream.complete)
    assert stream.received == RESPONSE_BYTES
    return loop, conn


def traced_growth(step, times=10_000):
    """(peak, retained, snapshot) growth of traced memory over ``times``
    calls of ``step``, tracemalloc running.  Everything the loop itself
    needs exists before the peak is reset, so a step that allocates even
    a block it frees at once raises the peak."""
    calls = itertools.repeat(None, times)
    before = tracemalloc.take_snapshot()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    for _ in calls:
        step()
    current, peak = tracemalloc.get_traced_memory()
    after = tracemalloc.take_snapshot()
    here = [tracemalloc.Filter(True, __file__)]
    grown = [
        (stat.traceback[0].lineno, stat.size_diff, stat.count_diff)
        for stat in after.filter_traces(here).compare_to(
            before.filter_traces(here), "lineno"
        )
        if stat.size_diff or stat.count_diff
    ]
    return peak - start, current - start, grown


@pytest.mark.skipif(_ckernel is None, reason="C kernel not built on this host")
class TestInflightRing:
    """The C core keeps its packets in flight in a ring indexed by packet
    number; the Python core (the oracle) in a dict."""

    TRANSFERS = {"lossy": lossy_transfer, "reordering": reordering_transfer}

    @pytest.mark.parametrize("transfer", sorted(TRANSFERS))
    @pytest.mark.parametrize("conn_cls", [RingAuditedTcp, RingAuditedQuic])
    def test_ring_reads_as_the_ascending_dict(self, conn_cls, transfer):
        loop, conn = self.TRANSFERS[transfer](conn_cls)
        assert type(conn._inflight) is _ckernel.Inflight
        # The transfer exercised threshold losses (and on the lossy path
        # the PTO), with holes (packets acked out of order) in the ring.
        assert conn.declared_lost and conn.holes_seen
        assert conn.stats.rto_events >= (transfer == "lossy")
        assert conn.audits > conn.stats.data_packets_sent
        assert len(conn.declared_lost) + conn.stats.rto_events == (
            conn.stats.data_packets_lost
        )
        # And it ran exactly as the Python core's does on a dict.
        plain = conn_cls.__bases__[1]
        oracle_loop, oracle = self.TRANSFERS[transfer](python_core(plain))
        assert (loop.processed_events, loop.scheduled_events, repr(loop.now)) == (
            oracle_loop.processed_events, oracle_loop.scheduled_events,
            repr(oracle_loop.now),
        )
        assert dataclasses.astuple(conn.stats) == dataclasses.astuple(oracle.stats)

    def test_truth_test_allocates_nothing(self):
        # Mid-transfer: packets in flight, so the ring is non-empty.
        loop = EventLoop()
        path = NetworkPath(loop, NetemProfile(delay_ms=10.0, rate_mbps=20.0))
        conn = TcpConnection(loop, path)
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        conn.request(400, 200_000)
        loop.run(until_ms=loop.now + 35.0)
        assert conn._inflight
        truth = bool
        tracemalloc.start()
        try:
            # 10,000 truth tests, between two runs of an empty step that
            # show the measurement's own objects (the first also warms
            # tracemalloc's caches).
            traced_growth(lambda: None)
            tested = traced_growth(lambda: truth(conn._inflight))
            idle = traced_growth(lambda: None)
        finally:
            tracemalloc.stop()
        assert tested == idle

    def test_python_writes_append_and_reload(self):
        loop = EventLoop()
        conn = TcpConnection(loop, NetworkPath(loop, NetemProfile(delay_ms=5.0)))
        ring = conn._inflight
        packets = {seq: Packet(PacketKind.DATA, seq=seq) for seq in (3, 5, 9)}
        conn._inflight = packets
        assert conn._inflight is ring
        assert dict(ring.items()) == packets and list(ring) == [3, 5, 9]
        assert (5 in ring, 4 in ring, "5" in ring, ring[5]) == (
            True, False, False, packets[5]
        )
        with pytest.raises(ValueError):
            ring[7] = Packet(PacketKind.DATA, seq=7)  # not above 9
        with pytest.raises(TypeError):
            ring[10] = "not a packet"
        ring[12] = packets[9]
        assert ring.pop(3) is packets[3] and list(ring) == [5, 9, 12]
        assert ring.pop(9) is packets[9] and ring.pop(9, None) is None
        assert list(ring) == [5, 12]
        with pytest.raises(KeyError):
            ring[9]
        with pytest.raises(KeyError):
            ring.pop(9)
        conn._inflight = {}
        assert not ring and len(ring) == 0 and list(ring) == []


class TestOnePtoArmPerBurst:
    # (events dispatched, data packets sent, events scheduled), pinned
    # on either core, and PTO arms (each one schedules the deadline's
    # event), counted on the Python core.  The dispatched counts are those of the per-packet
    # re-arming code this replaced: cancelled timer events never
    # dispatch, so arming once per burst must leave them exactly where
    # they were.  Every PTO arm schedules one event, so equal scheduled
    # counts pin the C core's arms too.
    PINNED = {
        "tcp": (297, 187, 479),
        "quic": (296, 186, 476),
    }
    PTO_STARTS = 99

    @pytest.mark.parametrize("conn_cls", [AuditedTcp, AuditedQuic])
    def test_pinned_counts(self, conn_cls):
        loop, conn = lossy_transfer(conn_cls)
        pto_starts = conn.pto_starts
        assert (
            loop.processed_events,
            conn.stats.data_packets_sent,
            loop.scheduled_events,
        ) == self.PINNED[conn_cls.protocol_name]
        assert pto_starts == self.PTO_STARTS
        assert pto_starts <= conn.ack_packets + conn.bursts
        # Per-packet arming would have started it once per data packet.
        assert pto_starts < conn.stats.data_packets_sent

    @pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])
    def test_pinned_counts_on_the_default_core(self, conn_cls):
        loop, conn = lossy_transfer(conn_cls)
        assert (
            loop.processed_events,
            conn.stats.data_packets_sent,
            loop.scheduled_events,
        ) == self.PINNED[conn_cls.protocol_name]


class TestPayloadBytesField:
    def test_multi_chunk_packet(self):
        pkt = Packet(
            PacketKind.DATA,
            chunks=(StreamChunk(1, 0, 700), StreamChunk(3, 1460, 500, fin=True)),
        )
        assert pkt.payload_bytes == 1200
        assert pkt.size_bytes == HEADER_BYTES + 1200

    def test_explicit_size_keeps_payload(self):
        pkt = Packet(PacketKind.DATA, chunks=(StreamChunk(1, 0, 900),), size_bytes=1500)
        assert pkt.size_bytes == 1500
        assert pkt.payload_bytes == 900

    def test_replace_recomputes(self):
        pkt = Packet(PacketKind.DATA, chunks=(StreamChunk(1, 0, 900),))
        bigger = dataclasses.replace(
            pkt, chunks=(StreamChunk(1, 0, 900), StreamChunk(2, 0, 100))
        )
        assert bigger.payload_bytes == 1000
        assert pkt.payload_bytes == 900
        # A derived field: it cannot be passed in, only computed.
        with pytest.raises(ValueError):
            dataclasses.replace(pkt, payload_bytes=1)
        field = {f.name: f for f in dataclasses.fields(Packet)}["payload_bytes"]
        assert field.init is False

    def test_tcp_reorder_buffer_bytes(self):
        loop = EventLoop()
        path = NetworkPath(loop, NetemProfile(delay_ms=5.0))
        conn = TcpConnection(loop, path)

        def data(conn_start, *sizes):
            chunks = tuple(StreamChunk(1, conn_start + i, size) for i, size in enumerate(sizes))
            return Packet(PacketKind.DATA, chunks=chunks, conn_start=conn_start)

        # Bytes [0, 1000) are missing: both later packets are HoL-blocked.
        conn._on_data_packet_received(data(1000, 400, 600))
        conn._on_data_packet_received(data(2000, 300))
        assert conn.reorder_buffer_bytes == 1300
        assert conn.stats.hol_blocked_chunks == 3
        # Filling the gap releases both and ends the stall.
        conn._on_data_packet_received(data(0, 1000))
        assert conn.reorder_buffer_bytes == 0
        assert conn._rcv_next == 2300
        assert conn.stats.hol_stalls == 1
