"""Differential tests of the native ``Packet`` against the dataclass.

When the C kernel is built, ``repro.netsim.packet.Packet`` is the C type
``repro.events._ckernel.Packet`` and the dataclass stays as
``_PyPacket``; without the kernel both names are the dataclass.  Every
construction here is made on both types, and everything observable must
match: each field's value and type, the ``size_bytes``/``payload_bytes``
arithmetic, equality, ``repr``, ``dataclasses.fields``/``replace`` and
the errors of a bad call.  Both draw ``uid`` from one counter, in the
order the packets are built, whether C or Python builds them; and a
native packet taken from the freelist never shows a field of its
previous life.
"""

import dataclasses
import gc

import pytest

from repro.events import EventLoop
from repro.events.loop import _ckernel
from repro.netsim import NetemProfile, NetworkPath
from repro.netsim import packet as packet_module
from repro.netsim.packet import Packet, PacketKind, StreamChunk, _PyPacket
from repro.transport import QuicConnection

native = pytest.mark.skipif(_ckernel is None, reason="C kernel not built on this host")

FIELDS = tuple(f.name for f in dataclasses.fields(_PyPacket))

CHUNK = StreamChunk(1, 0, 1460)
TWO_CHUNKS = (StreamChunk(1, 0, 700), StreamChunk(3, 1460, 500, fin=True))

#: (positional, keyword) constructor calls.
CALLS = {
    "ack-defaults": ((PacketKind.ACK,), {}),
    "handshake": ((PacketKind.HANDSHAKE,), {"seq": 2}),
    "data": (
        (PacketKind.DATA,),
        {"seq": 3, "chunks": (CHUNK,), "sent_at": 12.5, "conn_start": 0},
    ),
    "multi-chunk": ((PacketKind.DATA,), {"chunks": TWO_CHUNKS}),
    "explicit-size": (
        (PacketKind.DATA,), {"chunks": (StreamChunk(1, 0, 900),), "size_bytes": 1500}
    ),
    "non-positive-size": ((PacketKind.DATA,), {"chunks": (CHUNK,), "size_bytes": -3}),
    "sack": (
        (PacketKind.ACK,),
        {"ack_seq": 9, "sack": (7, 8, 9), "ack_delay_ms": 0.75},
    ),
    "retransmission": (
        (PacketKind.DATA,),
        {"seq": 4, "chunks": (CHUNK,), "retransmission": True, "conn_start": 2920},
    ),
    "positional": (
        (PacketKind.DATA, 7, (CHUNK,), -1, (), 0.25, 0, 99, 3.5, True, 4380),
        {},
    ),
    "mixed": ((PacketKind.ACK, 5), {"sack": (5,), "ack_seq": 5, "uid": 12}),
}

TYPES = [pytest.param(_PyPacket, id="dataclass")]
if Packet is not _PyPacket:
    TYPES.append(pytest.param(Packet, id="native"))


def fields_of(pkt, uid_base=None):
    """Every field as (name, type, value); uid relative to uid_base."""
    out = []
    for name in FIELDS:
        value = getattr(pkt, name)
        if name == "uid" and uid_base is not None:
            value -= uid_base
        out.append((name, type(value), value))
    return tuple(out)


def build_pair(args, kwargs):
    """The same call on the dataclass and on Packet, each drawing its
    uid (unless given) as the first of a fresh count."""
    built = []
    for cls in (_PyPacket, Packet):
        base = next(packet_module._packet_ids)
        pkt = cls(*args, **kwargs)
        built.append((pkt, None if "uid" in kwargs or len(args) > 7 else base))
    return built


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_construction_matches_the_dataclass(call):
    (oracle, oracle_base), (pkt, base) = build_pair(*call)
    assert fields_of(pkt, base) == fields_of(oracle, oracle_base)
    assert repr(pkt) == repr(oracle)


@pytest.mark.parametrize("cls", TYPES)
def test_equality_compares_every_field(cls):
    pkt = cls(PacketKind.DATA, seq=3, chunks=(CHUNK,), sent_at=1.5)
    same = dataclasses.replace(pkt)
    assert same is not pkt and same == pkt and not same != pkt
    for change in (
        {"seq": 4}, {"chunks": TWO_CHUNKS}, {"sent_at": 2.5}, {"uid": pkt.uid + 1},
        {"retransmission": True}, {"kind": PacketKind.ACK}, {"sack": (3,)},
    ):
        other = dataclasses.replace(pkt, **change)
        assert other != pkt and not other == pkt, change
    other = dataclasses.replace(pkt)
    other.payload_bytes = 7
    assert other != pkt
    assert pkt != (PacketKind.DATA, 3) and not pkt == 3
    with pytest.raises(TypeError):
        hash(pkt)


def test_native_and_dataclass_packets_are_never_equal():
    oracle = _PyPacket(PacketKind.ACK, uid=5)
    pkt = Packet(PacketKind.ACK, uid=5)
    assert fields_of(pkt) == fields_of(oracle)
    assert (pkt == oracle) is (Packet is _PyPacket)


@pytest.mark.parametrize("cls", TYPES)
def test_fields_and_replace(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS
    assert dataclasses.is_dataclass(cls)
    payload = {f.name: f for f in dataclasses.fields(cls)}["payload_bytes"]
    assert payload.init is False
    pkt = cls(PacketKind.DATA, chunks=(StreamChunk(1, 0, 900),))
    before = next(packet_module._packet_ids)
    bigger = dataclasses.replace(pkt, chunks=TWO_CHUNKS)
    # replace passes uid on: the copy draws none.
    assert next(packet_module._packet_ids) == before + 1
    assert type(bigger) is cls and bigger.uid == pkt.uid
    assert (bigger.payload_bytes, bigger.size_bytes) == (1200, pkt.size_bytes)
    assert pkt.payload_bytes == 900
    with pytest.raises(ValueError, match="payload_bytes"):
        dataclasses.replace(pkt, payload_bytes=1)
    assert cls.__match_args__ == _PyPacket.__match_args__


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),
        ((PacketKind.ACK,), {"payload_bytes": 3}),
        ((PacketKind.ACK,), {"no_such_field": 1}),
        ((PacketKind.ACK,), {"kind": PacketKind.DATA}),
        ((PacketKind.ACK,) + (0,) * 11, {}),
    ],
    ids=["no-kind", "init-false-field", "unknown", "twice", "too-many"],
)
@pytest.mark.parametrize("cls", TYPES)
def test_bad_calls_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


@pytest.mark.parametrize("cls", TYPES)
def test_fields_are_assignable(cls):
    pkt = cls(PacketKind.DATA, chunks=(CHUNK,))
    pkt.seq = 11
    pkt.retransmission = True
    pkt.sent_at = 4.0
    assert (pkt.seq, pkt.retransmission, pkt.sent_at) == (11, True, 4.0)


def test_uids_follow_build_order_across_c_and_python():
    """A Python call, a packet the transport core builds (in C when the
    kernel is built), then the dataclass: one counter, in that order."""
    loop = EventLoop()
    path = NetworkPath(loop, NetemProfile(delay_ms=5.0))
    conn = QuicConnection(loop, path)
    sent = []
    path.send_to_server = lambda pkt, on_deliver: sent.append(pkt)
    first = next(packet_module._packet_ids)
    by_python = Packet(PacketKind.HANDSHAKE, seq=1)
    conn._ack_pending.extend([2, 1])
    conn._flush_acks()
    by_dataclass = _PyPacket(PacketKind.ACK)
    (by_core,) = sent
    assert type(by_core) is Packet
    assert (by_core.ack_seq, by_core.sack) == (2, (1, 2))
    assert [p.uid - first for p in (by_python, by_core, by_dataclass)] == [1, 2, 3]
    assert next(packet_module._packet_ids) - first == 4


@native
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_a_recycled_packet_shows_nothing_of_its_previous_life(call):
    _ckernel._packet_stats(reset=True)
    dirty = Packet(
        PacketKind.DATA, seq=77, chunks=TWO_CHUNKS, ack_seq=76, sack=(1, 2),
        ack_delay_ms=9.5, size_bytes=4000, uid=123456, sent_at=88.25,
        retransmission=True, conn_start=5000,
    )
    dirty.payload_bytes = 31
    address = id(dirty)
    del dirty
    (oracle, oracle_base), (pkt, base) = build_pair(*call)
    # Both the dataclass and the native packet are built after the free;
    # the native one is the freed packet, reused.
    assert id(pkt) == address
    assert _ckernel._packet_stats() == (2, 1)
    assert fields_of(pkt, base) == fields_of(oracle, oracle_base)


@native
def test_freelist_counts_and_reset():
    _ckernel._packet_stats(reset=True)
    packets = [Packet(PacketKind.ACK) for _ in range(3)]
    assert _ckernel._packet_stats() == (3, 0)
    del packets
    again = [Packet(PacketKind.ACK) for _ in range(4)]
    assert _ckernel._packet_stats() == (7, 3)
    assert _ckernel._packet_stats(reset=True) == (7, 3)
    assert _ckernel._packet_stats() == (0, 0)
    del again


@pytest.mark.parametrize("cls", TYPES)
def test_a_cycle_through_a_packet_is_collected(cls):
    gc.collect()
    holder = []
    pkt = cls(PacketKind.ACK, sack=holder)
    holder.append(pkt)
    del pkt, holder
    assert gc.collect() >= 2


@pytest.mark.parametrize("cls", TYPES)
def test_the_link_counts_either_type_by_its_size(cls):
    """The C link reads a native packet's size in place and asks any
    other packet object for ``size_bytes``, as the Python link does."""
    from repro.netsim.link import Link

    loop = EventLoop()
    link = Link(loop, delay_ms=1.0, rate_mbps=8.0)
    delivered = []
    pkt = cls(PacketKind.DATA, chunks=(CHUNK,))
    assert link.transmit(pkt, delivered.append)
    loop.run()
    assert delivered == [pkt]
    stats = link.stats
    assert (stats.sent_bytes, stats.delivered_bytes) == (pkt.size_bytes,) * 2
    assert stats.busy_time_ms == pkt.size_bytes * 8 / 8000.0
