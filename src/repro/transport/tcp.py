"""TCP connection model: the substrate for HTTP/1.1 and HTTP/2.

Two properties of TCP matter for the paper and both live here:

* **Handshake cost.**  A TCP connection needs a SYN/SYN-ACK round trip
  before TLS can even start; TLS 1.2 adds two more round trips, TLS 1.3
  one, and a resumed TLS 1.3 session with early data rides the first
  application flight (so only the TCP round trip remains — this is why
  H2's "resumed" connections still pay 1 RTT while H3's 0-RTT pays none).
* **In-order delivery.**  The receiver releases bytes to the application
  strictly in connection order.  When a packet is lost, every
  later-arriving packet — *even ones carrying unrelated streams* — sits
  in the reorder buffer until the retransmission fills the gap.  That is
  head-of-line blocking, the mechanism behind the paper's Fig. 9.
"""

from __future__ import annotations

import enum

from repro.netsim.packet import Packet
from repro.transport.base import BaseConnection


class TlsVersion(enum.Enum):
    """TLS versions the paper's protocol suites use."""

    TLS12 = "tls1.2"
    TLS13 = "tls1.3"


class TcpConnection(BaseConnection):
    """A TCP+TLS connection between one probe and one server."""

    protocol_name = "tcp"

    def __init__(
        self,
        *args,
        tls_version: TlsVersion = TlsVersion.TLS13,
        resumed: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.tls_version = tls_version
        self.resumed = resumed
        # Receiver reassembly: next in-order connection byte expected,
        # plus a buffer of out-of-order packets keyed by stream position.
        self._rcv_next = 0
        self._reorder_buffer: dict[int, Packet] = {}
        # When the current HoL stall began (reorder buffer went
        # non-empty); None while delivery is flowing in order.
        self._stall_started_at: float | None = None

    def _handshake_flights(self) -> int:
        tcp_flights = 1  # SYN / SYN-ACK
        if self.tls_version is TlsVersion.TLS12:
            # TLS 1.2 has no early data; resumption (session IDs/tickets)
            # still saves one of its two round trips.
            tls_flights = 1 if self.resumed else 2
        else:
            # TLS 1.3 completes in one round trip either way.  A resumed
            # session only skips that round trip if the client ships the
            # request as 0-RTT early data — which browsers disable by
            # default (replay risk), so H2 resumption normally saves CPU
            # but no latency.  This asymmetry against QUIC's 0-RTT is
            # what the paper's Section VI-D measures.
            if self.resumed and self.config.tls13_early_data:
                tls_flights = 0
            else:
                tls_flights = 1
        return tcp_flights + tls_flights

    @property
    def tcp_connect_ms(self) -> float | None:
        """Duration of the TCP (pre-TLS) portion of the handshake."""
        if self.handshake is None or not self.handshake.flight_times_ms:
            return None
        return self.handshake.flight_times_ms[0]

    @property
    def ssl_ms(self) -> float | None:
        """Duration of the TLS portion of the handshake."""
        if self.handshake is None:
            return None
        tcp = self.tcp_connect_ms or 0.0
        return self.handshake.connect_ms - tcp

    # ------------------------------------------------------------------
    # In-order (head-of-line blocked) delivery
    # ------------------------------------------------------------------

    def _on_data_packet_received(self, pkt: Packet) -> None:
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

    def _release_packet(self, pkt: Packet) -> None:
        self._rcv_next += pkt.payload_bytes
        for chunk in pkt.chunks:
            self._deliver_chunk(chunk)

    def _fast_path_sync(self, stream_ends: dict[int, int], payload_bytes: int) -> None:
        # A loss-free epoch delivers strictly in connection-byte order,
        # so the whole payload advances the in-order cursor at once (the
        # epoch never runs while the reorder buffer holds a gap: it
        # requires every in-flight packet to be acked first).
        self._rcv_next += payload_bytes

    @property
    def reorder_buffer_bytes(self) -> int:
        """Bytes currently stuck behind a gap (diagnostics)."""
        return sum(p.payload_bytes for p in self._reorder_buffer.values())
