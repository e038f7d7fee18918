"""Packet and stream-chunk datatypes shared by TCP and QUIC models.

A :class:`Packet` is what traverses a :class:`~repro.netsim.link.Link`.
Its payload is a list of :class:`StreamChunk` records describing which
application streams' bytes it carries.  TCP and QUIC differ in how the
*receiver* releases those chunks (in byte-stream order vs per stream) —
the packet format itself is shared.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

#: Conventional Ethernet-ish maximum segment size used by both transports.
DEFAULT_MSS = 1460

#: Size in bytes we charge for a packet with no payload (headers only).
HEADER_BYTES = 40

_packet_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Coarse classification of a packet's role."""

    HANDSHAKE = "handshake"
    DATA = "data"
    ACK = "ack"
    TICKET = "ticket"


@dataclass(frozen=True, slots=True)
class StreamChunk:
    """A contiguous run of one stream's bytes carried by a packet.

    ``offset`` is the stream-relative byte offset; ``fin`` marks the last
    chunk of the stream.
    """

    stream_id: int
    offset: int
    size: int
    fin: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"chunk size must be positive, got {self.size}")
        if self.offset < 0:
            raise ValueError(f"chunk offset must be >= 0, got {self.offset}")

    @property
    def end(self) -> int:
        """One past the last stream byte in this chunk."""
        return self.offset + self.size


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    ``seq`` is a transport-assigned packet number (QUIC-style: unique,
    monotonically increasing, never reused even for retransmissions; the
    TCP model also tracks byte ranges via chunks).  ``ack_seq`` is used by
    ACK packets to carry cumulative/summary acknowledgement state:
    ``ack_seq`` is the largest packet number covered and ``sack`` lists
    every packet number the ACK acknowledges (QUIC-style ranges,
    flattened).  ``ack_delay_ms`` reports how long the receiver held the
    ACK back (RFC 9002 §5.3) so the sender can exclude delayed-ack time
    from its RTT samples.
    """

    kind: PacketKind
    seq: int = -1
    chunks: tuple[StreamChunk, ...] = ()
    ack_seq: int = -1
    sack: tuple[int, ...] = ()
    ack_delay_ms: float = 0.0
    size_bytes: int = field(default=0)
    uid: int = field(default_factory=_packet_ids.__next__)
    sent_at: float = -1.0
    retransmission: bool = False
    #: TCP models use this: position of the packet's payload in the
    #: connection-wide byte stream (the receiver reassembles in this
    #: order, which is what produces head-of-line blocking).
    conn_start: int = -1
    #: Total stream bytes carried by this packet.  Computed once here
    #: rather than re-summed on every read: ``chunks`` is never
    #: reassigned after construction, and ``dataclasses.replace`` runs
    #: ``__post_init__`` again, so the field cannot go stale.
    payload_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        payload = 0
        for chunk in self.chunks:
            payload += chunk.size
        self.payload_bytes = payload
        if self.size_bytes <= 0:
            self.size_bytes = HEADER_BYTES + payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chunks = ",".join(
            f"s{c.stream_id}[{c.offset}:{c.end}{'F' if c.fin else ''}]"
            for c in self.chunks
        )
        return f"<Packet {self.kind.value} seq={self.seq} {chunks}>"
