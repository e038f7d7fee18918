"""Packet and stream-chunk datatypes shared by TCP and QUIC models.

A :class:`Packet` is what traverses a :class:`~repro.netsim.link.Link`.
Its payload is a list of :class:`StreamChunk` records describing which
application streams' bytes it carries.  TCP and QUIC differ in how the
*receiver* releases those chunks (in byte-stream order vs per stream) —
the packet format itself is shared.

When the C kernel is built (the default whenever a C compiler is on the
path), ``Packet`` is ``repro.events._ckernel.Packet``: the dataclass
below as a C type, its numbers held unboxed, with the same constructor,
defaults, ``__post_init__`` arithmetic, equality, ``repr`` and
``dataclasses.fields``/``replace`` behaviour, drawing ``uid`` from the
same counter, and reusing freed packets from a bounded freelist; the
C link and transport cores read and write its fields in place.
Otherwise (no compiler, or ``REPRO_NO_CKERNEL=1``) it is the dataclass,
which the differential tests hold the C type to.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from dataclasses import dataclass, field

from repro.events.loop import _ckernel

#: Conventional Ethernet-ish maximum segment size used by both transports.
DEFAULT_MSS = 1460

#: Size in bytes we charge for a packet with no payload (headers only).
HEADER_BYTES = 40

#: ``Packet.uid``'s source: one counter for every packet, whichever
#: type built it (the C type's own counter when the kernel is built).
_packet_ids = itertools.count(1) if _ckernel is None else _ckernel.packet_ids


class PacketKind(enum.Enum):
    """Coarse classification of a packet's role."""

    HANDSHAKE = "handshake"
    DATA = "data"
    ACK = "ack"
    TICKET = "ticket"


class StreamChunk(
    namedtuple("StreamChunk", ("stream_id", "offset", "size", "fin"), defaults=(False,))
):
    """A contiguous run of one stream's bytes carried by a packet.

    ``offset`` is the stream-relative byte offset; ``fin`` marks the last
    chunk of the stream.  An immutable tuple: every data packet makes
    one, and a tuple builds in about half the time of a frozen
    dataclass, whose ``__init__`` sets each field through
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __new__(
        cls, stream_id: int, offset: int, size: int, fin: bool = False
    ) -> "StreamChunk":
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        if offset < 0:
            raise ValueError(f"chunk offset must be >= 0, got {offset}")
        return tuple.__new__(cls, (stream_id, offset, size, fin))

    @classmethod
    def _make(cls, iterable) -> "StreamChunk":
        # namedtuple's ``_make`` (and so ``_replace``) bypasses ``__new__``.
        return cls(*iterable)

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

    def __repr__(self) -> str:
        chunks = ",".join(
            f"s{c.stream_id}[{c.offset}:{c.end}{'F' if c.fin else ''}]"
            for c in self.chunks
        )
        return f"<Packet {self.kind.value} seq={self.seq} {chunks}>"


#: The dataclass, also when the C type stands in for it.
_PyPacket = Packet

# The C type when the kernel is built, the dataclass otherwise.
if _ckernel is not None:
    _ckernel._install_packet(
        Packet=_PyPacket,
        StreamChunk=StreamChunk,
        PacketKind=PacketKind,
        header_bytes=HEADER_BYTES,
    )
    Packet = _ckernel.Packet
