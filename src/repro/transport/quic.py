"""QUIC connection model: the substrate for HTTP/3.

The two H3 strengths the paper analyses map to two properties here:

* **Fast connection.**  QUIC merges the transport and TLS 1.3 handshakes
  into a single round trip; with a cached session ticket the client
  sends 0-RTT application data immediately (``resumed=True`` yields a
  zero-flight handshake and ``connect`` time of 0).
* **Stream multiplexing.**  Each stream is reassembled independently:
  a lost packet delays only the stream whose bytes it carried, so
  unrelated resources keep flowing — no transport head-of-line blocking.
"""

from __future__ import annotations

from repro.netsim.packet import Packet, StreamChunk
from repro.transport.base import BaseConnection


class QuicConnection(BaseConnection):
    """A QUIC (RFC 9000) connection between one probe and one server."""

    protocol_name = "quic"

    def __init__(self, *args, resumed: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.resumed = resumed
        # Per-stream reassembly state: next expected offset and a buffer
        # of out-of-order chunks keyed by offset.
        self._stream_rcv_next: dict[int, int] = {}
        self._stream_buffers: dict[int, dict[int, StreamChunk]] = {}
        # Stream id → when its (stream-local) stall began.  QUIC stalls
        # never cross streams — that is the HoL-freedom being measured.
        self._stream_stall_started: dict[int, float] = {}

    def _handshake_flights(self) -> int:
        # Full handshake: QUIC-TLS completes in one round trip (the
        # transport handshake is folded into the TLS 1.3 exchange).
        # Resumed: 0-RTT — request data rides the first flight.
        return 0 if self.resumed else 1

    @property
    def ssl_ms(self) -> float | None:
        """QUIC-TLS is integral to the handshake: all of connect is 'ssl'."""
        if self.handshake is None:
            return None
        return self.handshake.connect_ms

    # ------------------------------------------------------------------
    # Per-stream (HoL-free) delivery
    # ------------------------------------------------------------------

    def _on_data_packet_received(self, pkt: Packet) -> None:
        for chunk in pkt.chunks:
            self._receive_stream_chunk(chunk)

    def _receive_stream_chunk(self, chunk: StreamChunk) -> None:
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

    def _fast_path_sync(self, stream_ends: dict[int, int], payload_bytes: int) -> None:
        # A loss-free epoch delivers every stream's chunks in offset
        # order; each touched stream's expected-offset cursor jumps to
        # its epoch-final position.
        for stream_id, end in stream_ends.items():
            self._stream_rcv_next[stream_id] = end

    @property
    def buffered_chunks(self) -> int:
        """Out-of-order chunks currently held (diagnostics)."""
        return sum(len(b) for b in self._stream_buffers.values())
