"""Connection machinery shared by the TCP and QUIC models.

A :class:`BaseConnection` simulates *both* endpoints of one
client↔server connection, exchanging packets over a lossy
:class:`~repro.netsim.path.NetworkPath`:

* The **handshake** is a configurable number of sequential round trips
  (each flight is a real packet subject to loss, with timeout-based
  retransmission).  Subclasses define how many flights their protocol
  stack needs; zero flights models QUIC 0-RTT.
* The **client side** sends requests reliably (per-packet ack +
  retransmission timer) and reassembles response bytes.  How received
  packets are *released to the application* is the subclass hook where
  TCP's head-of-line blocking vs QUIC's stream independence lives.
* The **server side** queues response bytes per stream after a think
  time, round-robins MSS-sized chunks across active streams (emulating
  H2/H3 frame interleaving), and paces transmission with a pluggable
  congestion controller.  Loss detection uses QUIC-style packet numbers
  with a packet threshold, plus a probe timeout (PTO) fallback.

The per-packet and per-request part of that loop — the request
exchange (:meth:`request`, the request packets with their
retransmission timeouts, the server's request reassembly and the
think-time wait), the server's send burst, ACK processing, loss
detection and PTO, the client's ACK batching and chunk hand-off, and
the construction of every stream, data/ACK/request
:class:`~repro.netsim.packet.Packet` and
:class:`~repro.netsim.packet.StreamChunk` — lives in the base class
:class:`BaseConnection` derives from.  When the C kernel is built (the
default whenever a C compiler is on the path) that is ``TransportCore``
from ``repro/events/_ckernel.c``: the hot counters live in C, the probe
timeout and delayed-ACK deadlines are event handles it holds, and calls
between those methods never enter the interpreter.  Otherwise (no
compiler, or ``REPRO_NO_CKERNEL=1``) it is :class:`_PyTransportCore`,
the same methods in Python and the oracle the differential tests
run the C core against.  Both give the same results, bit for bit, on
either scheduler.  The core also holds the receivers' reassembly, TCP's
in-order release and QUIC's per-stream one (the subclasses alias their
``_on_data_packet_received`` to it), and the handshake deadline.  The C
core runs the per-ACK arithmetic of an exact
:class:`~repro.transport.rtt.RttEstimator`,
:class:`~repro.transport.congestion.NewRenoController` or
:class:`~repro.transport.congestion.CubicController` itself; any other
controller (BBR, the strict-mode ``CheckedController``, a subclass) is
called.  The handshake flights stay Python on both.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.check.context import NULL_CHECK
from repro.check.controller import CheckedController
from repro.events import EventLoop
from repro.events.loop import _ckernel
from repro.netsim.packet import Packet, PacketKind, StreamChunk
from repro.netsim.path import NetworkPath
from repro.obs.metrics import NULL_SAMPLER
from repro.obs.trace import NULL_TRACER
from repro.transport import fastpath
from repro.transport.config import TransportConfig
from repro.transport.congestion import (
    CongestionController,
    CubicController,
    NewRenoController,
    make_congestion_controller,
)
from repro.transport.rtt import RttEstimator


#: Hot-path aliases: reading a member off the Enum class goes through
#: its metaclass and costs about ten module-global reads, per packet.
_ACK = PacketKind.ACK
_DATA = PacketKind.DATA


class TransportError(RuntimeError):
    """Raised when a connection gives up (handshake/request retries exhausted)."""


def _ignore_failure(error: TransportError) -> None:
    """The failure sink of a closed connection that had one."""


@dataclass
class HandshakeResult:
    """Timing of a completed handshake.

    ``flight_times_ms`` holds the completion time of each round trip
    relative to ``connect()``; the HTTP layer uses the first entry to
    split HAR ``connect`` into TCP vs SSL portions.
    """

    connect_ms: float
    flight_times_ms: tuple[float, ...]
    zero_rtt: bool
    retries: int


@dataclass(slots=True)
class ConnectionStats:
    """Per-connection counters used by tests and the analysis layer.

    Slotted, so the C transport core updates its counters in place.
    """

    data_packets_sent: int = 0
    data_packets_lost: int = 0
    retransmissions: int = 0
    acks_received: int = 0
    rto_events: int = 0
    handshake_retries: int = 0
    request_retransmissions: int = 0
    hol_blocked_chunks: int = 0
    #: Completed HoL-stall intervals (reorder buffer non-empty → empty).
    hol_stalls: int = 0
    hol_stall_ms: float = 0.0
    #: Analytic fast-path epochs run (response transfers advanced
    #: arithmetically instead of per-packet; 0 on the packet path).
    fast_path_epochs: int = 0


class ClientStream:
    """Client-side view of one request/response exchange."""

    __slots__ = (
        "stream_id",
        "request_bytes",
        "response_bytes",
        "on_first_byte",
        "on_complete",
        "opened_at",
        "received",
        "t_first_byte",
        "t_complete",
    )

    def __init__(
        self,
        stream_id: int,
        request_bytes: int,
        response_bytes: int,
        on_first_byte: Callable[[float], None] | None,
        on_complete: Callable[[float], None] | None,
        opened_at: float,
    ) -> None:
        self.stream_id = stream_id
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.on_first_byte = on_first_byte
        self.on_complete = on_complete
        self.opened_at = opened_at
        self.received = 0
        self.t_first_byte: float | None = None
        self.t_complete: float | None = None

    @property
    def complete(self) -> bool:
        return self.t_complete is not None


class _ServerStream:
    """Server-side state of one stream: request reassembly + send queue."""

    __slots__ = (
        "stream_id",
        "response_bytes",
        "think_ms",
        "weight",
        "request_received",
        "request_total",
        "request_offsets",
        "response_queued",
        "next_offset",
    )

    def __init__(
        self,
        stream_id: int,
        response_bytes: int,
        think_ms: float = 0.0,
        weight: int = 1,
    ) -> None:
        self.stream_id = stream_id
        self.response_bytes = response_bytes
        self.think_ms = think_ms
        #: H2/H3 priority weight: chunks sent per round-robin turn.
        self.weight = max(1, weight)
        self.request_received = 0
        self.request_total: int | None = None  # known once fin arrives
        self.request_offsets: set[int] = set()
        self.response_queued = False
        self.next_offset = 0  # next response byte to chunk for sending

    @property
    def request_complete(self) -> bool:
        return self.request_total is not None and self.request_received >= self.request_total

    @property
    def send_remaining(self) -> int:
        return self.response_bytes - self.next_offset if self.response_queued else 0


@dataclass(slots=True)
class _PendingRequestPacket:
    packet: Packet
    #: The scheduled ``_on_request_timeout(seq)`` event; cancelled on
    #: ack and on close.
    timeout: object
    tries: int = 0


def _cancel(event) -> None:
    """Cancel a deadline's pending event, if any; None, the disarmed handle."""
    if event is not None:
        event.cancel()


# The deadlines' event callbacks drop the handle first, as
# ``Timer._fire`` did, then run the handler.  Module functions with the
# connection as their argument, not bound methods held by a ``Timer``:
# a connection whose deadlines are disarmed then holds no reference
# cycle through them.


def _fire_pto(conn) -> None:
    conn._pto_event = None
    conn._on_pto()


def _fire_ack(conn) -> None:
    conn._ack_event = None
    conn._flush_acks()


def _fire_handshake(conn) -> None:
    conn._hs_event = None
    conn._on_handshake_timeout()


class _PyTransportCore:
    """The send/ack/receive loop of :class:`BaseConnection`, in Python.

    The server's send burst (:meth:`_try_send`,
    :meth:`_send_data_packet`), ACK processing (:meth:`_server_on_packet`,
    :meth:`_server_on_ack`), loss detection (:meth:`_detect_losses`) and
    probe timeout (:meth:`_arm_pto`, :meth:`_on_pto`), and the client's
    ACK batching and chunk hand-off
    (:meth:`_client_on_packet_from_server`, :meth:`_flush_acks`,
    :meth:`_deliver_chunk`), over the state :class:`BaseConnection`
    sets up.  ``TransportCore`` in ``repro/events/_ckernel.c`` is the
    same methods in C: the same float expressions in the same order,
    the same hooks called in the same order with the same arguments,
    and the same events scheduled in the same order, with the hot
    counters held in its struct.  Here as there, the three deadlines
    (PTO, delayed ACK, handshake) are plain event handles.  The
    receivers' reassembly (:meth:`_tcp_on_data_packet_received` and
    :meth:`_tcp_release_packet`, :meth:`_quic_on_data_packet_received`
    and :meth:`_quic_receive_stream_chunk`) and the request exchange
    (:meth:`request`, :meth:`_send_request_packet`,
    :meth:`_on_request_timeout`, :meth:`_client_on_request_ack`,
    :meth:`_server_absorb_request_chunk`,
    :meth:`_server_enqueue_response`) live here too.
    This class runs when the C kernel is not built (or
    ``REPRO_NO_CKERNEL=1`` is set), and it is the oracle the
    differential tests compare the C core against.
    """

    def __init__(self, *args, **kwargs) -> None:
        # Cooperative: the connection's own __init__ runs first.
        super().__init__(*args, **kwargs)
        #: The pending PTO / delayed-ACK / handshake events, or None
        #: when disarmed.
        self._pto_event = None
        self._ack_event = None
        self._hs_event = None

    def _stop_deadlines(self) -> None:
        """Disarm every deadline (connection teardown)."""
        self._pto_event = _cancel(self._pto_event)
        self._ack_event = _cancel(self._ack_event)
        self._hs_event = _cancel(self._hs_event)

    def _start_handshake_deadline(self, delay_ms: float) -> None:
        """(Re-)arm the handshake flight's retransmission deadline."""
        _cancel(self._hs_event)
        self._hs_event = self.loop.call_later(delay_ms, _fire_handshake, self)

    def _stop_handshake_deadline(self) -> None:
        self._hs_event = _cancel(self._hs_event)

    # -- server: ACKs in, data out ---------------------------------------

    def _server_on_packet(self, pkt: Packet) -> None:
        if pkt.kind is _ACK:
            self._server_on_ack(pkt)
            return
        # A request data packet: ack it, then absorb new chunks.
        ack = Packet(PacketKind.ACK, ack_seq=pkt.seq)
        self.path.send_to_client(ack, self._client_on_packet_from_server)
        for chunk in pkt.chunks:
            self._server_absorb_request_chunk(chunk)

    def _server_on_ack(self, pkt: Packet) -> None:
        # One ACK packet may cover several data packets (``sack`` lists
        # every newly-received packet number; ``ack_seq`` is the largest).
        acked = pkt.sack or (pkt.ack_seq,)
        inflight = self._inflight
        cc = self.cc
        now = self.loop.now
        tracer = self.tracer
        self.stats.acks_received += len(acked)
        largest: Packet | None = None
        for seq in acked:
            sent = inflight.pop(seq, None)
            if sent is None:
                continue  # duplicate or already declared lost
            if tracer:
                tracer.packet_acked(now, seq)
            size = sent.size_bytes
            self._bytes_in_flight -= size
            cc.on_ack(size, now)
            self._delivered_bytes += size
            if largest is None or seq > largest.seq:
                largest = sent
        if largest is None:
            return
        # RTT from the largest newly-acked, never-retransmitted packet,
        # net of the receiver's deliberate ack delay (RFC 9002 §5.3).
        rtt = self.rtt
        if not largest.retransmission:
            sample = now - largest.sent_at - pkt.ack_delay_ms
            if sample >= 0:
                rtt.on_sample(sample)
        rate_sampler = self._rate_sampler
        if rate_sampler is not None and rtt.srtt_ms:
            assert self._first_data_sent_at is not None
            elapsed = now - self._first_data_sent_at
            if elapsed > 0:
                rate_sampler(self._delivered_bytes / elapsed, rtt.srtt_ms)
        if pkt.ack_seq > self._largest_acked:
            self._largest_acked = pkt.ack_seq
        self._pto_backoff = 1
        if tracer:
            self._trace_metrics()
        if self.sampler:
            self.sampler.on_ack(self)
        self._detect_losses()
        # The timer is stopped *before* the send attempt: an analytic
        # walk started by ``_try_send`` looks at the next pending event.
        # A burst re-arms it; an idle attempt leaves the (re-)arm to us.
        if not inflight:
            self._pto_event = _cancel(self._pto_event)
        if not self._try_send() and inflight:
            self._arm_pto()

    def _detect_losses(self) -> None:
        """Packet-threshold loss detection (RFC 9002 §6.1.1).

        ``_inflight`` keys ascend (see ``_send_data_packet``), so the
        packets at or below the threshold form a prefix of the dict: the
        scan stops at the first key above it, and the lost packets come
        out already in packet-number order.
        """
        cutoff = self._largest_acked - self.config.packet_threshold
        inflight = self._inflight
        lost = []
        for seq in inflight:
            if seq > cutoff:
                break
            lost.append(seq)
        if not lost:
            return
        newly_entered_recovery = False
        for seq in lost:
            sent = inflight.pop(seq)
            self._bytes_in_flight -= sent.size_bytes
            self.stats.data_packets_lost += 1
            if self.tracer:
                self.tracer.packet_lost(self.loop.now, seq, "packet_threshold")
            self._retx_queue.append((sent.chunks[0], sent.conn_start))
            if seq > self._recovery_until_seq:
                newly_entered_recovery = True
        if newly_entered_recovery:
            # One congestion response per round trip worth of losses.
            self.cc.on_loss(self.loop.now)
            self._recovery_until_seq = self._largest_sent
            if self.tracer:
                self._trace_metrics(force=True)
            if self.sampler:
                self.sampler.on_loss(self)

    def _try_send(self) -> bool:
        """Transmit as much as the congestion window allows.

        Retransmissions are sent first and are exempt from the window
        check (loss-recovery packets must not be starved by the very
        congestion event that caused them).

        Returns whether any packet went out, in which case the PTO timer
        has been armed once for the whole burst.  Arming per burst is
        exact: no time passes and no RTT sample or backoff change
        happens inside a burst, so a per-packet re-arm would compute the
        same deadline every time, and each re-arm would cancel the
        previous one.  The one surviving event is scheduled after every
        delivery event of the burst, as the last per-packet arm was.
        """
        if self._fast_path_enabled and fastpath.advance(self):
            return False
        sent_any = False
        retx_queue = self._retx_queue
        while retx_queue:
            chunk, conn_start = retx_queue.popleft()
            self._send_data_packet(chunk, conn_start, True)
            sent_any = True
        send_queue = self._send_queue
        if send_queue:
            mss = self.config.mss
            # Sending never calls into the controller, so the window is
            # fixed for the whole burst.
            cwnd = self.cc.cwnd_bytes
            streams = self._server_streams
            while send_queue:
                if self._bytes_in_flight + mss > cwnd:
                    break
                stream_id = send_queue[0]
                sstream = streams[stream_id]
                # ``send_remaining`` without the property: a stream is
                # queued only by ``_server_enqueue_response``, after its
                # ``response_queued`` flag is set.
                if sstream.response_bytes - sstream.next_offset <= 0:
                    send_queue.popleft()
                    continue
                # Weighted round-robin: a stream emits up to ``weight``
                # chunks per turn (H2 stream weights / H3 priorities),
                # then yields to the next stream.
                fin = False
                for _ in range(sstream.weight):
                    offset = sstream.next_offset
                    remaining = sstream.response_bytes - offset
                    if remaining <= 0:
                        break
                    if self._bytes_in_flight + mss > cwnd:
                        break
                    size = mss if mss < remaining else remaining
                    fin = offset + size >= sstream.response_bytes
                    chunk = StreamChunk(stream_id, offset, size, fin)
                    conn_start = self._conn_send_offset
                    self._conn_send_offset = conn_start + size
                    sstream.next_offset = offset + size
                    self._send_data_packet(chunk, conn_start, False)
                    sent_any = True
                send_queue.rotate(-1)
                if fin:
                    # Drop the stream from the queue wherever it now is.
                    try:
                        send_queue.remove(stream_id)
                    except ValueError:  # pragma: no cover - defensive
                        pass
        if sent_any:
            self._arm_pto()
        return sent_any

    def _send_data_packet(
        self, chunk: StreamChunk, conn_start: int, retransmission: bool
    ) -> None:
        """Send one data packet; the caller arms the PTO after its burst.

        Packet numbers come from one increasing counter and this is the
        only place ``_inflight`` gains entries, so its keys are always
        in ascending order (``_detect_losses`` and ``_on_pto`` rely on
        it).
        """
        now = self.loop.now
        seq = next(self._next_pkt_seq)
        pkt = Packet(
            _DATA,
            seq=seq,
            chunks=(chunk,),
            sent_at=now,
            retransmission=retransmission,
            conn_start=conn_start,
        )
        size = pkt.size_bytes
        self._largest_sent = seq
        if self._first_data_sent_at is None:
            self._first_data_sent_at = now
        self._inflight[seq] = pkt
        self._bytes_in_flight += size
        stats = self.stats
        stats.data_packets_sent += 1
        if retransmission:
            stats.retransmissions += 1
        if self.tracer:
            self.tracer.packet_sent(now, seq, size, "s2c", retransmission)
        self.path.send_to_client(pkt, self._client_on_packet_from_server)

    def _arm_pto(self) -> None:
        # RFC 9002 §6.2.1: the peer may legitimately sit on an ACK for
        # up to max_ack_delay, so the probe timeout budgets for it.
        timeout = (self.rtt.rto_ms + self.config.max_ack_delay_ms) * self._pto_backoff
        _cancel(self._pto_event)
        self._pto_event = self.loop.call_later(timeout, _fire_pto, self)

    def _on_pto(self) -> None:
        if not self._inflight:
            return
        self.stats.rto_events += 1
        if self.tracer:
            self.tracer.event(
                self.loop.now, "recovery:pto_fired", backoff=self._pto_backoff
            )
        self._pto_backoff = min(self._pto_backoff * 2, 64)
        # RFC 9002 §7.4: a probe timeout does NOT collapse the window;
        # only *persistent* congestion (consecutive timeouts with no
        # intervening ack) does.  Modern TCP behaves similarly via tail
        # loss probes.
        if self._pto_backoff > 2:
            self.cc.on_rto(self.loop.now)
        # Keys ascend (see ``_send_data_packet``): the first is the oldest.
        oldest_seq = next(iter(self._inflight))
        sent = self._inflight.pop(oldest_seq)
        self._bytes_in_flight -= sent.size_bytes
        self.stats.data_packets_lost += 1
        if self.tracer:
            self.tracer.packet_lost(self.loop.now, oldest_seq, "pto")
            self._trace_metrics(force=True)
        if self.sampler:
            self.sampler.on_loss(self)
        self._retx_queue.append((sent.chunks[0], sent.conn_start))
        if oldest_seq > self._recovery_until_seq:
            self._recovery_until_seq = self._largest_sent
        if not self._try_send() and self._inflight:
            self._arm_pto()

    # -- client: data in, ACKs out --------------------------------------

    def _client_on_packet_from_server(self, pkt: Packet) -> None:
        if pkt.kind is _ACK:
            self._client_on_request_ack(pkt)
            return
        # Receipt, not delivery, drives acking — this is what lets the
        # sender learn about gaps while the receiver is HoL-blocked.
        # ACKs are batched: every ``ack_frequency`` packets in the smooth
        # case, immediately on any sequence anomaly (a gap means loss
        # detection is waiting on this ACK), with a max_ack_delay timer
        # backstop so tail packets are never acked late.
        seq = pkt.seq
        now = self.loop.now
        if self.tracer:
            self.tracer.packet_received(now, seq, pkt.size_bytes, pkt.retransmission)
        largest = self._ack_largest_received
        out_of_order = seq != largest + 1
        if seq > largest:
            self._ack_largest_received = seq
        ack_pending = self._ack_pending
        ack_pending.append(seq)
        self._ack_last_recv_at = now
        if (
            out_of_order
            or pkt.retransmission
            or len(ack_pending) >= self.config.ack_frequency
        ):
            self._flush_acks()
        elif self._ack_event is None:
            self._ack_event = self.loop.call_later(
                self.config.max_ack_delay_ms, _fire_ack, self
            )
        self._on_data_packet_received(pkt)

    def _flush_acks(self) -> None:
        """Send one ACK covering every pending data-packet number."""
        if not self._ack_pending:
            return
        self._ack_event = _cancel(self._ack_event)
        pending = tuple(sorted(self._ack_pending))
        self._ack_pending.clear()
        ack = Packet(
            PacketKind.ACK,
            ack_seq=pending[-1],
            sack=pending,
            ack_delay_ms=self.loop.now - self._ack_last_recv_at,
        )
        self.path.send_to_server(ack, self._server_on_packet)

    def _deliver_chunk(self, chunk: StreamChunk) -> None:
        """Hand in-order stream bytes to the application layer."""
        stream = self.streams.get(chunk.stream_id)
        if stream is None:
            return
        if self.check:
            self.check.require(
                chunk.size > 0,
                "stream:chunk_positive",
                "delivered an empty stream chunk",
                time_ms=self.loop.now,
                stream_id=chunk.stream_id,
                offset=chunk.offset,
            )
            self.check.require(
                stream.received + chunk.size <= stream.response_bytes,
                "stream:byte_conservation",
                "delivered more bytes than the response holds "
                "(overlapping or duplicated chunks)",
                time_ms=self.loop.now,
                stream_id=chunk.stream_id,
                received=stream.received,
                chunk_size=chunk.size,
                response_bytes=stream.response_bytes,
            )
        if stream.t_first_byte is None:
            stream.t_first_byte = self.loop.now
            if stream.on_first_byte is not None:
                stream.on_first_byte(self.loop.now)
        stream.received += chunk.size
        if stream.received >= stream.response_bytes and stream.t_complete is None:
            if self.check:
                self.check.require(
                    stream.received == stream.response_bytes,
                    "stream:byte_conservation",
                    "stream completed with delivered != requested bytes",
                    time_ms=self.loop.now,
                    stream_id=chunk.stream_id,
                    received=stream.received,
                    response_bytes=stream.response_bytes,
                )
            stream.t_complete = self.loop.now
            if self.tracer:
                self.tracer.event(
                    self.loop.now, "http:stream_closed",
                    stream_id=stream.stream_id,
                    first_byte_ms=(stream.t_first_byte or 0.0) - stream.opened_at,
                    duration_ms=self.loop.now - stream.opened_at,
                )
            if stream.on_complete is not None:
                stream.on_complete(self.loop.now)

    # -- client: reassembly ----------------------------------------------

    def _tcp_on_data_packet_received(self, pkt: Packet) -> None:
        """TCP: release bytes strictly in connection order.

        A packet past a gap waits in the reorder buffer until the
        retransmission fills it, whatever stream it carries: that wait
        is head-of-line blocking, timed as a stall from the buffer going
        non-empty to its draining.
        """
        start = pkt.conn_start
        rcv_next = self._rcv_next
        if start < rcv_next:
            return  # duplicate of already-delivered data
        reorder_buffer = self._reorder_buffer
        if start > rcv_next:
            # Gap: buffer and wait for the retransmission.  Everything
            # in this buffer — any stream — is HoL-blocked.
            if start not in reorder_buffer:
                if not reorder_buffer:
                    # The connection just became HoL-blocked.
                    self._stall_started_at = self.loop.now
                    if self.tracer:
                        self.tracer.event(
                            self.loop.now, "transport:hol_stall_started",
                            blocked_from=rcv_next,
                        )
                reorder_buffer[start] = pkt
                self.stats.hol_blocked_chunks += len(pkt.chunks)
            return
        self._release_packet(pkt)
        if not reorder_buffer:
            return  # nothing was blocked, so no stall can end here
        while self._rcv_next in reorder_buffer:
            self._release_packet(reorder_buffer.pop(self._rcv_next))
        if not reorder_buffer and self._stall_started_at is not None:
            duration = self.loop.now - self._stall_started_at
            self._stall_started_at = None
            self.stats.hol_stalls += 1
            self.stats.hol_stall_ms += duration
            if self.tracer:
                self.tracer.event(
                    self.loop.now, "transport:hol_stall_ended",
                    duration_ms=duration,
                )

    def _tcp_release_packet(self, pkt: Packet) -> None:
        self._rcv_next += pkt.payload_bytes
        for chunk in pkt.chunks:
            self._deliver_chunk(chunk)

    def _quic_on_data_packet_received(self, pkt: Packet) -> None:
        """QUIC: reassemble each stream on its own (no cross-stream HoL)."""
        for chunk in pkt.chunks:
            self._receive_stream_chunk(chunk)

    def _quic_receive_stream_chunk(self, chunk: StreamChunk) -> None:
        stream_id = chunk.stream_id
        expected = self._stream_rcv_next.get(stream_id, 0)
        if chunk.offset < expected:
            return  # duplicate
        if chunk.offset > expected:
            # Gap *within this stream only*: other streams unaffected.
            buffer = self._stream_buffers.setdefault(stream_id, {})
            if chunk.offset not in buffer:
                if not buffer:
                    # This one stream just became blocked on a gap.
                    self._stream_stall_started[stream_id] = self.loop.now
                    if self.tracer:
                        self.tracer.event(
                            self.loop.now, "transport:hol_stall_started",
                            stream_id=stream_id, blocked_from=expected,
                        )
                buffer[chunk.offset] = chunk
                self.stats.hol_blocked_chunks += 1
            return
        self._deliver_chunk(chunk)
        expected = chunk.offset + chunk.size
        buffer = self._stream_buffers.get(stream_id)
        if buffer:
            while expected in buffer:
                queued = buffer.pop(expected)
                self._deliver_chunk(queued)
                expected = queued.offset + queued.size
        self._stream_rcv_next[stream_id] = expected
        if not buffer:
            started = self._stream_stall_started.pop(stream_id, None)
            if started is not None:
                duration = self.loop.now - started
                self.stats.hol_stalls += 1
                self.stats.hol_stall_ms += duration
                if self.tracer:
                    self.tracer.event(
                        self.loop.now, "transport:hol_stall_ended",
                        stream_id=stream_id, duration_ms=duration,
                    )

    # -- the request exchange --------------------------------------------

    @property
    def can_send_requests(self) -> bool:
        """Requests may flow once established (or immediately for 0-RTT)."""
        return not self.closed and (self.established or self.zero_rtt)

    def request(
        self,
        request_bytes: int,
        response_bytes: int,
        think_ms: float | None = None,
        on_first_byte: Callable[[float], None] | None = None,
        on_complete: Callable[[float], None] | None = None,
        weight: int = 1,
    ) -> ClientStream:
        """Issue one request; returns the client-side stream handle.

        ``think_ms`` overrides the connection-level server think time
        for this request (used to model cache hits vs origin fetches).
        ``weight`` is the stream's priority: the sender emits that many
        chunks per scheduling turn (H2 stream weights / H3 priorities).
        """
        if not self.can_send_requests:
            raise TransportError("connection not ready for requests")
        if request_bytes <= 0 or response_bytes <= 0:
            raise ValueError("request and response sizes must be positive")
        stream_id = next(self._next_stream_id)
        stream = ClientStream(
            stream_id,
            request_bytes,
            response_bytes,
            on_first_byte,
            on_complete,
            opened_at=self.loop.now,
        )
        if self.tracer:
            self.tracer.event(
                self.loop.now, "http:stream_opened",
                stream_id=stream_id,
                request_bytes=request_bytes,
                response_bytes=response_bytes,
            )
        self.streams[stream_id] = stream
        self._server_streams[stream_id] = _ServerStream(
            stream_id,
            response_bytes,
            think_ms=self.server_think_ms if think_ms is None else think_ms,
            weight=weight,
        )
        mss = self.config.mss
        offset = 0
        while offset < request_bytes:
            size = min(mss, request_bytes - offset)
            fin = offset + size >= request_bytes
            chunk = StreamChunk(stream_id, offset, size, fin)
            self._send_request_packet(chunk)
            offset += size
        return stream

    def _send_request_packet(self, chunk: StreamChunk, tries: int = 0) -> None:
        seq = next(self._req_seq)
        pkt = Packet(PacketKind.DATA, seq=seq, chunks=(chunk,), sent_at=self.loop.now)
        pkt.retransmission = tries > 0
        if self.tracer:
            self.tracer.packet_sent(
                self.loop.now, seq, pkt.size_bytes, "c2s", tries > 0
            )
        timeout = self.loop.call_later(
            self.rtt.rto_ms * (2 ** min(tries, 6)), self._on_request_timeout, seq
        )
        self._pending_requests[seq] = _PendingRequestPacket(pkt, timeout, tries)
        self.path.send_to_server(pkt, self._server_on_packet)

    def _on_request_timeout(self, seq: int) -> None:
        pending = self._pending_requests.pop(seq, None)
        if pending is None:
            return
        self.stats.request_retransmissions += 1
        if pending.tries + 1 > self.config.max_request_retries:
            error = TransportError(
                f"{self.name or self.protocol_name}: request packet lost "
                f"{pending.tries + 1} times"
            )
            on_error = self.on_error
            if on_error is not None:
                self.close()
                on_error(error)
                return
            raise error
        self._send_request_packet(pending.packet.chunks[0], pending.tries + 1)

    def _client_on_request_ack(self, pkt: Packet) -> None:
        pending = self._pending_requests.pop(pkt.ack_seq, None)
        if pending is None:
            return
        pending.timeout.cancel()
        if not pending.packet.retransmission:
            self.rtt.on_sample(self.loop.now - pending.packet.sent_at)

    def _server_absorb_request_chunk(self, chunk: StreamChunk) -> None:
        sstream = self._server_streams.get(chunk.stream_id)
        if sstream is None or chunk.offset in sstream.request_offsets:
            return  # unknown stream or duplicate delivery
        sstream.request_offsets.add(chunk.offset)
        sstream.request_received += chunk.size
        if chunk.fin:
            sstream.request_total = chunk.end
        if sstream.request_complete and not sstream.response_queued:
            sstream.response_queued = True
            think = sstream.think_ms
            if think > 0:
                self.loop.call_later(think, self._server_enqueue_response, sstream)
            else:
                self._server_enqueue_response(sstream)

    def _server_enqueue_response(self, sstream: _ServerStream) -> None:
        if sstream.stream_id not in self._send_queue:
            self._send_queue.append(sstream.stream_id)
        self._try_send()


# The C core when the kernel is built, the pure-Python one otherwise.
if _ckernel is not None:
    _ckernel._install_transport(
        ConnectionStats=ConnectionStats,
        ServerStream=_ServerStream,
        ClientStream=ClientStream,
        # _try_send calls fastpath.advance; _deliver_chunk runs the
        # Python method itself whenever strict checking is on.
        fastpath=fastpath,
        deliver_chunk=_PyTransportCore._deliver_chunk,
        # Exact instances of these get their per-ACK arithmetic in C.
        RttEstimator=RttEstimator,
        NewRenoController=NewRenoController,
        CubicController=CubicController,
        # The request exchange builds these and raises this.
        PendingRequest=_PendingRequestPacket,
        TransportError=TransportError,
    )
    _TransportCore = _ckernel.TransportCore
else:  # pragma: no cover - exercised on hosts without a C toolchain
    _TransportCore = _PyTransportCore


class BaseConnection(_TransportCore):
    """One simulated connection; see module docstring.

    Subclasses must implement :meth:`_handshake_flights` (round trips
    before requests may be sent) and :meth:`_on_data_packet_received`
    (delivery-order semantics).
    """

    protocol_name = "base"

    def __init__(
        self,
        loop: EventLoop,
        path: NetworkPath,
        config: TransportConfig | None = None,
        cc: CongestionController | None = None,
        server_think_ms: float = 0.0,
        name: str = "",
        tracer=None,
        check=None,
        sampler=None,
    ) -> None:
        self.loop = loop
        self.path = path
        self.config = config or TransportConfig()
        #: qlog-style event tracer.  The null tracer is *falsy*; every
        #: hot-path instrumentation point is guarded with
        #: ``if self.tracer:`` so disabled tracing costs one attribute
        #: load + bool check and results stay bit-identical.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Invariant checker (strict mode); same null-object pattern.
        self.check = check if check is not None else NULL_CHECK
        #: Sim-time metrics sampler (repro.obs.metrics); same falsy
        #: null-object pattern, guarded with ``if self.sampler:``.
        self.sampler = sampler if sampler is not None else NULL_SAMPLER
        self.cc = cc or make_congestion_controller(
            self.config.congestion_control,
            self.config.mss,
            self.config.initial_cwnd_packets,
        )
        if self.check:
            # Observe-only proxy: every CC transition is sanity-checked
            # but the wrapped controller's decisions are untouched.
            self.cc = CheckedController(self.cc, self.check, self.config.mss)
        #: The controller's delivery-rate input (BBR), or None; resolved
        #: once here rather than per ACK.
        self._rate_sampler = getattr(self.cc, "on_rate_sample", None)
        self.server_think_ms = server_think_ms
        self.name = name
        self.stats = ConnectionStats()
        self.rtt = RttEstimator(self.config.initial_rto_ms, self.config.min_rto_ms)

        # Handshake state.
        self.established = False
        self.zero_rtt = False
        self.closed = False
        self.handshake: HandshakeResult | None = None
        self._connect_started_at: float | None = None
        self._hs_flight = 0
        self._hs_total = 0
        self._hs_retries = 0
        self._hs_flight_times: list[float] = []
        self._on_established: Callable[[HandshakeResult], None] | None = None
        self._on_failed: Callable[[TransportError], None] | None = None
        #: Optional sink for terminal client-side errors after the
        #: handshake (request retransmission budget exhausted).  When
        #: set — the pool installs one while fault injection is active —
        #: the connection closes itself and reports instead of raising
        #: out of the event loop.
        self.on_error: Callable[[TransportError], None] | None = None

        # Client request side.
        self._next_stream_id = itertools.count(1)
        self.streams: dict[int, ClientStream] = {}
        self._req_seq = itertools.count(1)
        self._pending_requests: dict[int, _PendingRequestPacket] = {}

        # Client delayed-ack state: data-packet numbers received but not
        # yet acknowledged.  Flushed every ``ack_frequency`` packets, on
        # any sequence anomaly (gap/reorder — RFC 9000 §13.2.1), or when
        # the ``max_ack_delay`` timer fires.
        self._ack_pending: list[int] = []
        self._ack_largest_received = 0
        self._ack_last_recv_at = 0.0

        # Server send side.
        self._server_streams: dict[int, _ServerStream] = {}
        self._send_queue: deque[int] = deque()  # stream ids with data to send
        self._retx_queue: deque[tuple[StreamChunk, int]] = deque()  # (chunk, conn_start)
        self._next_pkt_seq = itertools.count(1)
        self._largest_sent = 0
        self._largest_acked = 0
        #: Data packets awaiting acknowledgement, by packet number: the
        #: sent :class:`Packet` itself (its one chunk, ``conn_start``,
        #: size, send time and retransmission flag are all it needs).
        self._inflight: dict[int, Packet] = {}
        self._bytes_in_flight = 0
        self._recovery_until_seq = 0
        self._pto_backoff = 1
        self._conn_send_offset = 0  # TCP byte-stream position (subclasses use it)
        # Delivery-rate accounting for model-based controllers (BBR).
        self._first_data_sent_at: float | None = None
        self._delivered_bytes = 0
        # Last cwnd the tracer logged (metrics events are emitted only
        # on ≥1-MSS changes so traces stay bounded).  Read only when
        # tracing: untraced, the controller is never asked from Python.
        self._traced_cwnd = self.cc.cwnd_bytes if self.tracer else 0
        # Analytic fast path (repro.transport.fastpath): opt-in via
        # config, and forced off under tracing, strict checking or
        # metrics sampling — all want the real per-packet path.  Path
        # eligibility (loss-free, jitter-free, unfiltered) is re-checked
        # per attempt.
        self._fast_path_enabled = (
            self.config.fast_path
            and not self.tracer
            and not self.check
            and not self.sampler
        )
        #: The in-progress analytic walk (``fastpath._Epoch``), parked
        #: here between its yield points; None when the packet path (or
        #: nothing) is driving the send side.
        self._fp_epoch = None
        # The transport core's own set-up: the Python core disarms its
        # three deadlines; the C core's start out disarmed.
        super().__init__()

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    def _handshake_flights(self) -> int:
        """Round trips needed before request data may be sent."""
        raise NotImplementedError

    def connect(
        self,
        on_established: Callable[[HandshakeResult], None],
        on_failed: Callable[[TransportError], None] | None = None,
    ) -> None:
        """Begin the handshake; ``on_established`` fires when done.

        With a zero-flight plan (QUIC 0-RTT) the connection is usable
        immediately and the callback fires synchronously.

        ``on_failed`` (optional) receives the terminal
        :class:`TransportError` if the handshake retry budget runs out;
        without it the error propagates out of the event loop as before.
        """
        if self.established or self._connect_started_at is not None:
            raise TransportError("connect() called twice")
        self._connect_started_at = self.loop.now
        self._on_established = on_established
        self._on_failed = on_failed
        self._hs_total = self._handshake_flights()
        if self.tracer:
            self.tracer.event(
                self.loop.now, "transport:handshake_started",
                flights=self._hs_total,
            )
        if self._hs_total == 0:
            self.zero_rtt = True
            self._finish_handshake()
            return
        self._send_handshake_flight()

    def _send_handshake_flight(self) -> None:
        pkt = Packet(PacketKind.HANDSHAKE, seq=self._hs_flight)
        self.path.send_to_server(pkt, self._server_on_handshake)
        timeout = self.rtt.rto_ms * self._hs_backoff()
        self._start_handshake_deadline(timeout)

    def _hs_backoff(self) -> float:
        return float(2 ** min(self._hs_retries, 6))

    def _on_handshake_timeout(self) -> None:
        self._hs_retries += 1
        self.stats.handshake_retries += 1
        if self.tracer:
            self.tracer.event(
                self.loop.now, "recovery:handshake_timeout",
                flight=self._hs_flight, retries=self._hs_retries,
            )
        if self._hs_retries > self.config.max_handshake_retries:
            error = TransportError(
                f"{self.name or self.protocol_name}: handshake failed after "
                f"{self._hs_retries - 1} retries"
            )
            on_failed = self._on_failed
            if on_failed is not None:
                self.close()
                on_failed(error)
                return
            raise error
        self._send_handshake_flight()

    def _server_on_handshake(self, pkt: Packet) -> None:
        # The server is stateless here: it simply echoes the flight
        # number, which also covers retransmitted (duplicate) flights.
        reply = Packet(PacketKind.HANDSHAKE, seq=pkt.seq)
        self.path.send_to_client(reply, self._client_on_handshake_reply)

    def _client_on_handshake_reply(self, pkt: Packet) -> None:
        if self.established or pkt.seq != self._hs_flight:
            return  # stale or duplicate reply
        assert self._connect_started_at is not None
        elapsed = self.loop.now - self._connect_started_at
        self._hs_flight_times.append(elapsed)
        if self.tracer:
            self.tracer.event(
                self.loop.now, "transport:handshake_flight",
                flight=self._hs_flight, elapsed_ms=elapsed,
            )
        # A full flight is an RTT sample for the estimator (Karn: only
        # when this flight was never retransmitted; approximated by "no
        # retries so far", which is exact for flight 0).
        if self._hs_retries == 0:
            previous = self._hs_flight_times[-2] if len(self._hs_flight_times) > 1 else 0.0
            self.rtt.on_sample(elapsed - previous)
        self._hs_flight += 1
        if self._hs_flight >= self._hs_total:
            self._stop_handshake_deadline()
            self._finish_handshake()
        else:
            self._send_handshake_flight()

    def _finish_handshake(self) -> None:
        assert self._connect_started_at is not None
        self.established = True
        self.handshake = HandshakeResult(
            connect_ms=self.loop.now - self._connect_started_at,
            flight_times_ms=tuple(self._hs_flight_times),
            zero_rtt=self.zero_rtt,
            retries=self._hs_retries,
        )
        if self.tracer:
            self.tracer.event(
                self.loop.now, "transport:handshake_completed",
                connect_ms=self.handshake.connect_ms,
                zero_rtt=self.zero_rtt,
                retries=self._hs_retries,
            )
        if self._on_established is not None:
            self._on_established(self.handshake)

    # ------------------------------------------------------------------
    # Path migration
    # ------------------------------------------------------------------

    def on_path_migration(self) -> None:
        """The client's address changed and this connection migrated.

        RFC 9002 §6.2.2 / RFC 9000 §9.4: the old path's backoff says
        nothing about the new path, so validating it resets the PTO
        backoff; re-arming from the fresh backoff probes the new path
        promptly instead of waiting out a timer that exponential
        backoff armed before the address change.
        """
        self._pto_backoff = 1
        if self._inflight:
            self._arm_pto()

    # ------------------------------------------------------------------
    # Client: receiving response data
    # ------------------------------------------------------------------

    def _on_data_packet_received(self, pkt: Packet) -> None:
        """Subclass hook: buffer/reorder and eventually deliver chunks.

        TCP and QUIC alias it to the core's ``_tcp_*`` / ``_quic_*``
        reassembly, which the C core then runs without a Python call.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Analytic fast path (repro.transport.fastpath) support
    # ------------------------------------------------------------------

    def _fast_path_sync(self, stream_ends: dict[int, int], payload_bytes: int) -> None:
        """Advance receiver reassembly state past an analytic epoch.

        ``stream_ends`` maps each stream id touched by the epoch to its
        final delivered stream offset; ``payload_bytes`` is the epoch's
        total in-order payload.  Subclasses own the reassembly state, so
        each must override this for the fast path to be usable.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support the analytic fast path"
        )

    def _fast_path_step(self) -> None:
        """Continuation target: resume the parked analytic walk."""
        epoch = self._fp_epoch
        if epoch is not None and not self.closed:
            epoch.run()

    def _fast_path_first_byte(self, stream_id: int) -> None:
        """Scheduled at a stream's computed first-byte delivery time."""
        stream = self.streams.get(stream_id)
        if stream is None or stream.t_first_byte is not None:
            return
        stream.t_first_byte = self.loop.now
        if stream.on_first_byte is not None:
            stream.on_first_byte(self.loop.now)

    def _fast_path_stream_done(self, stream_id: int, delivered_bytes: int) -> None:
        """Scheduled at a stream's computed last-chunk delivery time."""
        stream = self.streams.get(stream_id)
        if stream is None:
            return
        stream.received += delivered_bytes
        if stream.received >= stream.response_bytes and stream.t_complete is None:
            stream.t_complete = self.loop.now
            if stream.on_complete is not None:
                stream.on_complete(self.loop.now)

    # ------------------------------------------------------------------

    def _trace_metrics(self, force: bool = False) -> None:
        """Emit a qlog ``recovery:metrics_updated`` event.

        Unless forced (loss/PTO), events are rate-limited to ≥1-MSS cwnd
        changes so per-ack sampling keeps traces bounded.
        """
        cwnd = self.cc.cwnd_bytes
        if not force and abs(cwnd - self._traced_cwnd) < self.config.mss:
            return
        self._traced_cwnd = cwnd
        self.tracer.metrics_updated(
            self.loop.now,
            cwnd,
            getattr(self.cc, "ssthresh_bytes", None),
            self._bytes_in_flight,
        )

    def close(self) -> None:
        """Tear down timers; the connection cannot be used afterwards.

        Also drops the owner's callbacks.  They are closures over the
        pool and the visit, which hold this connection in turn; once
        they are gone a finished visit is freed by reference counting
        instead of waiting for the cyclic garbage collector.
        """
        self.closed = True
        fastpath.cancel(self)
        self._stop_deadlines()
        self._ack_pending.clear()
        for pending in self._pending_requests.values():
            pending.timeout.cancel()
        self._pending_requests.clear()
        self._on_established = None
        if self._on_failed is not None:
            # A late handshake reply still restarts the flights of a
            # closed connection; should they run out of retries, the
            # failure stays swallowed, as the owner's callback did.
            self._on_failed = _ignore_failure
        self.on_error = None
        for stream in self.streams.values():
            stream.on_first_byte = None
            stream.on_complete = None

    def __repr__(self) -> str:
        state = "established" if self.established else "connecting"
        return f"<{type(self).__name__} {self.name} {state} streams={len(self.streams)}>"
