"""Analytic fast path: loss-free transfers without per-packet events.

On an eligible path (no loss model, no jitter, no drop filter — see
``NetworkPath.fast_path_eligible``) every packet of a response transfer
is deterministic: nothing can be dropped, reordered or delayed beyond
the queueing/serialization/propagation arithmetic the links apply.  The
event-loop simulation of such a transfer therefore computes a fixed
point that this module evaluates directly: a tight Python loop walks
the send/ack dynamics (congestion window, weighted round-robin
chunking, delayed-ack batching, RTT sampling) in virtual time and
reserves every transmission on the shared links arithmetically.  The
event loop sees two events per stream (first byte and completion, at
their analytically computed times) plus one continuation event per
yield point — instead of three-plus events per packet.

Yielding and interleaving
-------------------------

The walk is *resumable*.  Before processing each analytic step — an
ack emission, an ack arrival, or a delayed-ack timer — it peeks at the
real scheduler (:meth:`EventLoop.next_event_time`): if any real event
is due at or before the step, the walk parks its state on the
connection, schedules a continuation at the step's time, and returns.
Real events therefore always run before the walk's virtual clock
passes them.  Two consequences:

* A stream enqueued mid-transfer (its request-packet delivery and the
  server think-timer are real events) joins the weighted round-robin
  at exactly the time the packet path would have sent it: the enqueue
  resumes the walk immediately and the next burst includes it.
* Link occupancy is committed no earlier than the packet path would
  commit it.  Data bursts reserve the downlink at their send times
  (the packet path also hands a whole burst to the link at once), and
  ack emissions reserve the uplink lazily, at their emission step —
  so concurrent connections sharing the path serialize against the
  same reservations they would have seen from real packets.

Fidelity contract
-----------------

The fast path is **opt-in** (``TransportConfig.fast_path``) and the
flag is part of the result store's content address, so fast-path
results never alias full-simulation results.  Within one connection
the walk reproduces the event-loop dynamics exactly: the same chunk
interleaving, the same ack-frequency/max-ack-delay batching, the same
per-ack congestion-controller and RTT-estimator calls at the same
virtual times.  The remaining approximation is tie-breaking and
cross-connection ordering at identical timestamps: the walk yields to
any real event scheduled at or before its next step, but events *it*
schedules (continuations, stream callbacks) carry fresh sequence
numbers, so same-instant orderings can differ from the packet path's.

The fast path is forced off per connection whenever a tracer or strict
checker is attached — packet-level telemetry and invariant checking
want the real per-packet path — which makes ``--strict`` runs use the
packet path regardless of the flag.
"""

from __future__ import annotations

from collections import deque

from repro.netsim.packet import HEADER_BYTES

__all__ = ["advance", "cancel"]


def advance(conn) -> bool:
    """Advance ``conn``'s response transfer analytically, if possible.

    Called from ``BaseConnection._try_send``.  Returns ``True`` when
    the fast path owns the connection's sending — either a walk is
    already in progress (it is resumed, picking up any newly enqueued
    streams) or a new one could start.  Returns ``False`` (having
    changed nothing) when the connection is in a state this module
    cannot reason about: lossy/jittered or fault-wrapped path, packets
    in flight, pending retransmissions, or an unflushed delayed-ack
    batch — the caller falls through to the packet path.
    """
    epoch = conn._fp_epoch
    if epoch is not None:
        epoch.run()
        return True
    if not getattr(conn.path, "fast_path_eligible", False):
        return False
    if conn._retx_queue or conn._inflight or conn._ack_pending:
        return False
    if not conn._send_queue:
        return False
    conn._fp_epoch = epoch = _Epoch(conn)
    conn.stats.fast_path_epochs += 1
    epoch.run()
    return True


def cancel(conn) -> None:
    """Drop any parked walk (connection teardown).

    Reservations the walk already made stay accounted: on the packet
    path, deliveries scheduled before a close still fire and count, so
    the links' pending deliveries are settled unconditionally here.
    """
    epoch = conn._fp_epoch
    if epoch is not None:
        conn._fp_epoch = None
        if epoch.continuation is not None:
            epoch.continuation.cancel()
            epoch.continuation = None
        conn.path.uplink.settle(float("inf"))
        conn.path.downlink.settle(float("inf"))


class _Epoch:
    """One resumable analytic walk over a connection's send queue.

    The walk advances a virtual clock through three kinds of *steps*,
    kept in time-sorted queues:

    ``emissions``
        Client→server ack packets whose flush time is decided but whose
        uplink slot is not yet reserved.  Processing one reserves the
        uplink at the emission time and moves it to ``arrivals``.
    ``arrivals``
        Acks in flight on the uplink.  Processing one runs the server
        ack machinery (congestion controller, RTT estimator, delivery
        rate) and triggers the next send burst.
    ``ack_deadline``
        The receiver's pending max-ack-delay timer (set iff
        ``ack_batch`` holds undelivered ack numbers).

    Send bursts and the client-side delivery/batching machine run
    eagerly when a step fires: burst packets reserve the downlink at
    the send time, and each computed delivery feeds the delayed-ack
    state machine, appending future emissions.  Stream first-byte and
    completion callbacks are scheduled on the real loop as soon as
    their delivery times are known.
    """

    __slots__ = (
        "conn",
        "bytes_in_flight",
        "ack_batch",
        "ack_deadline",
        "last_recv_at",
        "last_seq_delivered",
        "emissions",
        "arrivals",
        "delivered",
        "stream_ends",
        "payload_pending",
        "continuation",
        "last_step_at",
    )

    def __init__(self, conn) -> None:
        self.conn = conn
        self.bytes_in_flight = 0
        #: Client delayed-ack state: (seq, sent_at, size) per unflushed
        #: delivery; deadline is set iff the batch is non-empty.
        self.ack_batch: list[tuple[int, float, int]] = []
        self.ack_deadline: float | None = None
        self.last_recv_at = conn._ack_last_recv_at
        self.last_seq_delivered = conn._ack_largest_received
        self.emissions: deque[tuple[float, tuple, float]] = deque()
        self.arrivals: deque[tuple[float, tuple, float]] = deque()
        #: Per-stream payload delivered so far (drives first-byte and
        #: completion callback scheduling).
        self.delivered: dict[int, int] = {}
        #: Receiver-sync deltas not yet applied to the connection.
        self.stream_ends: dict[int, int] = {}
        self.payload_pending = 0
        self.continuation = None
        #: Virtual time of the last processed step; the walk's final
        #: step (an ack arrival) bounds every link reservation it made,
        #: so settling at this time folds them all in at ``_finish``.
        self.last_step_at = conn.loop.now

    # -- the walk ------------------------------------------------------

    def run(self) -> None:
        conn = self.conn
        loop = conn.loop
        if self.continuation is not None:
            self.continuation.cancel()
            self.continuation = None
        # A resume may carry newly enqueued streams (the packet path
        # would send them right now if the window allows).
        if conn._send_queue:
            self._send_burst(loop.now)
        emissions = self.emissions
        arrivals = self.arrivals
        while True:
            # Next step: earliest of emission, arrival, ack timer.
            when = emissions[0][0] if emissions else None
            t_arr = arrivals[0][0] if arrivals else None
            kind = 0
            if t_arr is not None and (when is None or t_arr < when):
                when = t_arr
                kind = 1
            t_dl = self.ack_deadline
            if t_dl is not None and (when is None or t_dl < when):
                when = t_dl
                kind = 2
            if when is None:
                if conn._send_queue:
                    sent_before = conn.stats.data_packets_sent
                    self._send_burst(loop.now)
                    if conn.stats.data_packets_sent != sent_before:
                        continue
                self._finish()
                return
            # Yield to the scheduler whenever a real event is due at or
            # before this step: the walk's virtual clock never passes a
            # pending event.
            next_real = loop.next_event_time()
            if next_real is not None and next_real <= when:
                self.continuation = loop.call_at(when, conn._fast_path_step)
                self._sync()
                return
            self.last_step_at = when
            if kind == 0:
                at, batch, ack_delay = emissions.popleft()
                arrival = conn.path.uplink.reserve_transmit(HEADER_BYTES, at)
                arrivals.append((arrival, batch, ack_delay))
            elif kind == 1:
                at, batch, ack_delay = arrivals.popleft()
                self._process_ack(at, batch, ack_delay)
                self._send_burst(at)
            else:
                self._flush_batch(t_dl)

    # -- client side: delivery, delayed-ack batching -------------------

    def _flush_batch(self, at: float) -> None:
        self.emissions.append(
            (at, tuple(self.ack_batch), at - self.last_recv_at)
        )
        self.ack_batch.clear()
        self.ack_deadline = None

    def _on_delivery(
        self, seq: int, deliver_at: float, sent_at: float, size_bytes: int,
        stream_id: int, chunk_size: int, last_of_stream: bool,
    ) -> None:
        conn = self.conn
        # Deliveries arrive in nondecreasing time order (FIFO downlink);
        # an armed ack timer expiring first fires first.
        if self.ack_deadline is not None and self.ack_deadline < deliver_at:
            self._flush_batch(self.ack_deadline)
        self.last_recv_at = deliver_at
        self.last_seq_delivered = seq
        self.ack_batch.append((seq, sent_at, size_bytes))
        if len(self.ack_batch) >= conn.config.ack_frequency:
            self._flush_batch(deliver_at)
        elif self.ack_deadline is None:
            self.ack_deadline = deliver_at + conn.config.max_ack_delay_ms
        self.payload_pending += chunk_size
        total = self.delivered.get(stream_id)
        if total is None:
            total = 0
            conn.loop.call_at(deliver_at, conn._fast_path_first_byte, stream_id)
        total += chunk_size
        self.delivered[stream_id] = total
        if last_of_stream:
            conn.loop.call_at(
                deliver_at, conn._fast_path_stream_done, stream_id, total
            )

    # -- server side: bursts and ack processing ------------------------

    def _send_burst(self, at: float) -> None:
        """Mirror of ``BaseConnection._try_send``'s weighted round-robin
        loop, including mid-turn window breaks and fin dequeueing."""
        conn = self.conn
        cc = conn.cc
        stats = conn.stats
        downlink = conn.path.downlink
        send_queue = conn._send_queue
        streams = conn._server_streams
        mss = conn.config.mss
        bytes_in_flight = self.bytes_in_flight
        while send_queue:
            if bytes_in_flight + mss > cc.cwnd_bytes:
                break
            stream_id = send_queue[0]
            sstream = streams[stream_id]
            if sstream.send_remaining <= 0:
                send_queue.popleft()
                continue
            fin = False
            for _ in range(sstream.weight):
                remaining = sstream.send_remaining
                if remaining <= 0:
                    break
                if bytes_in_flight + mss > cc.cwnd_bytes:
                    break
                size = min(mss, remaining)
                fin = sstream.next_offset + size >= sstream.response_bytes
                sstream.next_offset += size
                conn._conn_send_offset += size
                self.stream_ends[stream_id] = sstream.next_offset
                seq = next(conn._next_pkt_seq)
                pkt_bytes = HEADER_BYTES + size
                if conn._first_data_sent_at is None:
                    conn._first_data_sent_at = at
                conn._largest_sent = seq
                stats.data_packets_sent += 1
                bytes_in_flight += pkt_bytes
                deliver_at = downlink.reserve_transmit(pkt_bytes, at)
                self._on_delivery(
                    seq, deliver_at, at, pkt_bytes,
                    stream_id, size, fin and sstream.send_remaining <= 0,
                )
            send_queue.rotate(-1)
            if fin:
                try:
                    send_queue.remove(stream_id)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self.bytes_in_flight = bytes_in_flight

    def _process_ack(self, at: float, batch: tuple, ack_delay: float) -> None:
        conn = self.conn
        cc = conn.cc
        stats = conn.stats
        largest_seq = -1
        largest_sent_at = 0.0
        for seq, sent_at, size_bytes in batch:
            stats.acks_received += 1
            self.bytes_in_flight -= size_bytes
            cc.on_ack(size_bytes, at)
            conn._delivered_bytes += size_bytes
            if seq > largest_seq:
                largest_seq = seq
                largest_sent_at = sent_at
        # RTT from the largest newly-acked packet, net of the
        # receiver's deliberate ack delay (RFC 9002 §5.3); epoch
        # packets are never retransmissions.
        sample = at - largest_sent_at - ack_delay
        if sample >= 0:
            conn.rtt.on_sample(sample)
        rate_sampler = conn._rate_sampler
        if rate_sampler is not None and conn.rtt.srtt_ms:
            elapsed = at - conn._first_data_sent_at
            if elapsed > 0:
                rate_sampler(conn._delivered_bytes / elapsed, conn.rtt.srtt_ms)
        if largest_seq > conn._largest_acked:
            conn._largest_acked = largest_seq

    # -- state hand-off ------------------------------------------------

    def _sync(self) -> None:
        """Apply accumulated receiver/ack state to the connection.

        Run at every yield point and at the end of the walk, so the
        connection's externally visible state is coherent whenever real
        events (which may inspect it) get control.
        """
        conn = self.conn
        if self.stream_ends or self.payload_pending:
            conn._fast_path_sync(self.stream_ends, self.payload_pending)
            self.stream_ends = {}
            self.payload_pending = 0
        conn._ack_largest_received = self.last_seq_delivered
        conn._ack_last_recv_at = self.last_recv_at

    def _finish(self) -> None:
        self._sync()
        conn = self.conn
        # The final processed step is the last ack arrival, which is at
        # or after every delivery this walk reserved on either link —
        # settling here keeps end-of-visit delivered totals identical
        # to the packet path's.
        conn.path.uplink.settle(self.last_step_at)
        conn.path.downlink.settle(self.last_step_at)
        conn._pto_backoff = 1
        conn._fp_epoch = None
