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

from repro.netsim.packet import StreamChunk
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

    # The transport core's per-stream reassembly (the Python text is
    # ``_PyTransportCore._quic_receive_stream_chunk``); the C core runs
    # it without leaving C.
    _on_data_packet_received = BaseConnection._quic_on_data_packet_received
    _receive_stream_chunk = BaseConnection._quic_receive_stream_chunk

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
