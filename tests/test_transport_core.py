"""Differential tests of the two transport cores.

``BaseConnection`` takes its send/ack/receive loop from
``TransportCore`` (C, in the event kernel module) when the kernel is
built and from ``_PyTransportCore`` otherwise.  Here a connection class
with each core runs the same seeded transfers, for TCP and QUIC, on
both schedulers, and everything observable must match exactly: every
link delivery (time, packet, kind, number), the loop's dispatched and
scheduled event counts, the connection's counters and loop state, the
RTT estimator, the congestion window, every RNG state, the tracer and
sampler records, the checker's tally and each stream's first-byte and
completion times (floats by ``repr``).
"""

import dataclasses
import gc
import random
import types

import pytest

from repro.check import CheckContext
from repro.events.loop import CEventLoop, HeapEventLoop, ScheduledEvent, _ckernel
from repro.faults.inject import FaultInjector
from repro.faults.profile import FaultEvent, FaultProfile
from repro.netsim import NetemProfile, NetworkPath, PacketKind
from repro.netsim import packet as packet_module
from repro.netsim.proxy import SegmentedPath
from repro.obs.metrics import ConnectionSampler
from repro.obs.trace import ConnectionTracer
from repro.transport import QuicConnection, TcpConnection, TransportConfig
from repro.transport.base import _PyTransportCore
from repro.transport.congestion import BbrLikeController

pytestmark = pytest.mark.skipif(
    _ckernel is None, reason="C kernel not built on this host"
)

LOOPS = [
    pytest.param(HeapEventLoop, id="heap"),
    pytest.param(CEventLoop, id="c"),
]

PROTOCOLS = [
    pytest.param(TcpConnection, id="tcp"),
    pytest.param(QuicConnection, id="quic"),
]

#: The methods the cores implement: the send/ack/receive loop, the
#: reassembly and the handshake deadline.
MOVED = (
    "_server_on_packet", "_server_on_ack", "_detect_losses", "_try_send",
    "_send_data_packet", "_arm_pto", "_on_pto",
    "_client_on_packet_from_server", "_flush_acks", "_deliver_chunk",
    "_tcp_on_data_packet_received", "_tcp_release_packet",
    "_quic_on_data_packet_received", "_quic_receive_stream_chunk",
    "_start_handshake_deadline", "_stop_handshake_deadline",
)

#: Connection state the loop keeps, compared after every transfer.
SCALARS = (
    "_largest_sent", "_largest_acked", "_bytes_in_flight",
    "_recovery_until_seq", "_pto_backoff", "_conn_send_offset",
    "_delivered_bytes", "_ack_largest_received", "_ack_last_recv_at",
    "_first_data_sent_at",
)


def python_core(cls):
    """``cls`` with the send/ack/receive loop of ``_PyTransportCore``.

    TCP and QUIC alias their reassembly hooks to the core's methods; the
    variant aliases them to the Python core's methods of the same names.
    """
    if issubclass(cls, _PyTransportCore):
        return cls
    aliases = {
        name: vars(_PyTransportCore)[value.__name__]
        for klass in cls.__mro__
        for name, value in vars(klass).items()
        if isinstance(value, types.MethodDescriptorType)
        and value.__objclass__ is _ckernel.TransportCore
        and name != value.__name__
    }
    return type(f"Py{cls.__name__}", (_PyTransportCore, cls), aliases)


def record_deliveries(path, loop, log, first_uid):
    """Log every delivery on the path's links as (link, time, uid, kind, seq).

    A hop of a segmented path that relays into the next one is logged
    when its relay runs (after the forward delay, if any)."""

    def entry(name, pkt):
        return (name, repr(loop.now), pkt.uid - first_uid, pkt.kind.value, pkt.seq)

    links = list(getattr(path, "uplinks", [path.uplink]))
    links += list(getattr(path, "downlinks", [path.downlink]))
    for link in links:
        if getattr(link, "relay", None) is not None:
            continue
        transmit = link.transmit

        def recorded(packet, on_deliver, transmit=transmit, name=link.name):
            def deliver(pkt):
                log.append(entry(name, pkt))
                on_deliver(pkt)

            return transmit(packet, deliver)

        link.transmit = recorded
    if isinstance(path, NetworkPath):
        path.send_to_server = path.uplink.transmit
        path.send_to_client = path.downlink.transmit
        return
    # Relays into the recorded last hops, then a log entry per relay.
    path._wire(path.uplinks)
    path._wire(path.downlinks[::-1])
    for link in links:
        if link.relay is None:
            continue

        def relayed(packet, on_deliver, relay=link.relay, name=link.name):
            log.append(entry(name, packet))
            return relay(packet, on_deliver)

        link.relay = relayed


def drop_first_fin():
    """Drops the first copy of every stream's last data packet: a tail
    loss only the probe timeout recovers."""

    def drop(pkt):
        return (
            pkt.kind is PacketKind.DATA
            and not pkt.retransmission
            and any(chunk.fin for chunk in pkt.chunks)
        )

    return drop


def drop_first_handshake_and_request():
    """Drops the first handshake flight and the first copy of the first
    request packet: a handshake retry and a request retransmission."""
    seen = set()

    def drop(pkt):
        key = pkt.kind
        if key in seen or pkt.retransmission:
            return False
        if key is PacketKind.HANDSHAKE or key is PacketKind.DATA:
            seen.add(key)
            return True
        return False

    return drop


#: Requests as (request bytes, response bytes, think ms, weight).
MIXED_STREAMS = (
    (400, 45_000, 0.0, 1),
    (300, 30_000, 3.0, 3),
    (500, 12_000, 1.5, 1),
    (200, 60_000, 0.0, 3),
)

LOSSY = NetemProfile(delay_ms=12.0, loss_rate=0.03, rate_mbps=20.0)

SCENARIOS = {
    "no-loss-weighted": dict(streams=MIXED_STREAMS),
    "bernoulli": dict(profile=LOSSY),
    "gilbert-elliott": dict(
        profile=NetemProfile(delay_ms=12.0, loss_rate=0.04, rate_mbps=20.0,
                             bursty_loss=True),
    ),
    "jitter": dict(
        profile=NetemProfile(delay_ms=12.0, jitter_ms=4.0, loss_rate=0.02,
                             rate_mbps=20.0),
    ),
    "tail-loss-pto": dict(drop_down=drop_first_fin),
    "request-loss-handshake-retry": dict(
        drop_up=drop_first_handshake_and_request, profile=LOSSY
    ),
    "migration": dict(profile=LOSSY, migrate_after=40.0),
    "faulted-path": dict(
        profile=LOSSY,
        faults=(FaultEvent(kind="blackout", start_ms=60.0, end_ms=90.0),),
    ),
    "proxy-path": dict(
        segments=(
            NetemProfile(delay_ms=4.0, loss_rate=0.01, rate_mbps=40.0),
            NetemProfile(delay_ms=10.0, loss_rate=0.02, jitter_ms=1.0,
                         rate_mbps=25.0),
        ),
    ),
    "bbr": dict(profile=LOSSY, cc=BbrLikeController),
    "cubic": dict(profile=LOSSY, config=TransportConfig(congestion_control="cubic")),
    "tracer": dict(profile=LOSSY, streams=MIXED_STREAMS, tracer=True,
                   drop_down=drop_first_fin),
    "sampler": dict(profile=LOSSY, sampler=True, drop_down=drop_first_fin),
    "strict-check": dict(profile=LOSSY, check=True, drop_down=drop_first_fin),
    "close-mid-transfer": dict(profile=LOSSY, close_after=35.0),
}


def transfer(
    conn_cls,
    loop_cls,
    *,
    profile=NetemProfile(delay_ms=12.0, rate_mbps=20.0),
    segments=None,
    faults=None,
    config=None,
    cc=None,
    drop_up=None,
    drop_down=None,
    tracer=False,
    sampler=False,
    check=False,
    migrate_after=None,
    close_after=None,
    streams=((400, 120_000, 0.0, 1),),
    seed=7,
):
    """One seeded handshake and request batch; returns what it observed."""
    loop = loop_cls()
    first_uid = next(packet_module._packet_ids)
    if segments is None:
        path = NetworkPath(loop, profile, rng=random.Random(seed))
    else:
        path = SegmentedPath(loop, segments, rng=random.Random(seed),
                             forward_delay_ms=0.5, proxy_model="masque-relay")
    deliveries = []
    record_deliveries(path, loop, deliveries, first_uid)
    if drop_up is not None:
        path.uplink.drop_filter = drop_up()
    if drop_down is not None:
        path.downlink.drop_filter = drop_down()
    conn_path = path
    if faults is not None:
        injector = FaultInjector(FaultProfile(events=faults), loop)
        injector.begin_visit()
        conn_path = injector.wrap_path(
            path, "example.org", quic=conn_cls is QuicConnection
        )
    hooks = {}
    if tracer:
        hooks["tracer"] = ConnectionTracer("conn", conn_cls.protocol_name)
    if sampler:
        hooks["sampler"] = ConnectionSampler("conn", conn_cls.protocol_name, 5.0)
    if check:
        hooks["check"] = CheckContext(mode="collect")
    conn = conn_cls(
        loop,
        conn_path,
        config=config,
        cc=cc(1460) if cc is not None else None,
        server_think_ms=2.0,
        name="conn",
        **hooks,
    )
    established = []
    conn.connect(established.append)
    loop.run_until(lambda: bool(established))
    handles = [
        conn.request(req, resp, think_ms=think, weight=weight)
        for req, resp, think, weight in streams
    ]
    if migrate_after is not None:
        loop.call_later(migrate_after, conn.on_path_migration)
    closed_at = []
    if close_after is not None:

        def close():
            closed_at.append(repr(loop.now))
            conn.close()

        loop.call_later(close_after, close)
    loop.run(max_events=2_000_000)
    links = list(getattr(path, "uplinks", [path.uplink]))
    links += list(getattr(path, "downlinks", [path.downlink]))
    rtt = conn.rtt
    return {
        "deliveries": deliveries,
        "events": (loop.processed_events, loop.scheduled_events, repr(loop.now)),
        "stats": repr(dataclasses.astuple(conn.stats)),
        "counters": dataclasses.asdict(conn.stats),
        "rtt": repr((rtt.srtt_ms, rtt.rttvar_ms, rtt.rto_ms, rtt.samples,
                     rtt.latest_sample_ms)),
        "cwnd": repr(conn.cc.cwnd_bytes),
        "state": repr(tuple(getattr(conn, name) for name in SCALARS)),
        "queues": (
            list(conn._inflight), list(conn._send_queue),
            [(chunk, start) for chunk, start in conn._retx_queue],
            list(conn._ack_pending),
        ),
        "rng": [link.rng.getstate() for link in links],
        "links": [repr(dataclasses.astuple(link.stats)) for link in links],
        "streams": [
            (repr(s.t_first_byte), repr(s.t_complete), s.received) for s in handles
        ],
        "closed_at": closed_at,
        "trace": repr(hooks["tracer"].events) if tracer else None,
        "samples": repr(hooks["sampler"].records()) if sampler else None,
        "checks": (
            (hooks["check"].checks_run, hooks["check"].render()) if check else None
        ),
    }


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("conn_cls", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_c_core_matches_python_core(scenario, conn_cls, loop_cls):
    kwargs = SCENARIOS[scenario]
    expected = transfer(python_core(conn_cls), loop_cls, **kwargs)
    got = transfer(conn_cls, loop_cls, **kwargs)
    for key in expected:
        assert got[key] == expected[key], key


class TestScenariosReachWhatTheyName:
    """The differential transfers really exercise their mechanisms."""

    @staticmethod
    def run(scenario, conn_cls=TcpConnection):
        return transfer(conn_cls, CEventLoop, **SCENARIOS[scenario])

    def test_every_stream_completes(self):
        for scenario in SCENARIOS:
            for conn_cls in (TcpConnection, QuicConnection):
                observed = self.run(scenario, conn_cls)
                assert all(s[1] != "None" for s in observed["streams"]), scenario

    def test_tail_loss_fires_the_probe_timeout(self):
        stats = self.run("tail-loss-pto")["counters"]
        assert stats["rto_events"] >= 1
        assert stats["retransmissions"] >= 1

    def test_lossy_transfers_detect_threshold_losses(self):
        for scenario in ("bernoulli", "gilbert-elliott", "jitter", "bbr", "cubic"):
            stats = self.run(scenario)["counters"]
            assert stats["data_packets_lost"] > stats["rto_events"], scenario

    def test_request_loss_and_handshake_retry(self):
        stats = self.run("request-loss-handshake-retry")["counters"]
        assert stats["handshake_retries"] >= 1
        assert stats["request_retransmissions"] >= 1

    def test_hooks_recorded(self):
        assert "transport:packet_sent" in self.run("tracer")["trace"]
        assert self.run("sampler")["samples"] != "[]"
        checks_run, violations = self.run("strict-check")["checks"]
        assert checks_run > 0 and violations == []

    def test_close_lands_mid_transfer(self):
        observed = self.run("close-mid-transfer")
        (closed_at,) = observed["closed_at"]
        # Packets already in flight keep the transfer going after close
        # (the closed-connection behaviour both cores keep).
        for first_byte, complete, _ in observed["streams"]:
            assert float(first_byte) < float(closed_at) < float(complete)

    def test_variants_run_the_core_they_name(self):
        for conn_cls in (TcpConnection, QuicConnection):
            for name in MOVED + ("_on_data_packet_received",):
                assert isinstance(getattr(conn_cls, name), types.MethodDescriptorType)
                assert isinstance(
                    getattr(python_core(conn_cls), name), types.FunctionType
                )
        assert TcpConnection._release_packet is TcpConnection._tcp_release_packet
        assert python_core(QuicConnection)._receive_stream_chunk is (
            _PyTransportCore._quic_receive_stream_chunk
        )


def in_flight_connection(loop_cls, conn_cls):
    """A connection mid-transfer, its PTO (and maybe its ACK) deadline armed."""
    loop = loop_cls()
    path = NetworkPath(loop, NetemProfile(delay_ms=10.0, rate_mbps=20.0))
    conn = conn_cls(loop, path)
    established = []
    conn.connect(established.append)
    loop.run_until(lambda: bool(established))
    conn.request(400, 200_000)
    loop.run(until_ms=loop.now + 35.0)
    assert conn._inflight
    return loop, conn


def pending_events(refs):
    return [
        ref for ref in refs
        if isinstance(ref, (ScheduledEvent, _ckernel.ScheduledEvent))
        and not ref.cancelled
    ]


def bound_to(refs, conn):
    return [
        ref for ref in refs
        if isinstance(ref, (types.MethodType, types.BuiltinMethodType))
        and ref.__self__ is conn
    ]


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("conn_cls", PROTOCOLS)
def test_closed_connection_holds_no_deadline_or_bound_method(conn_cls, loop_cls):
    loop, conn = in_flight_connection(loop_cls, conn_cls)
    # The armed PTO is a pending event the connection refers to.
    assert pending_events(gc.get_referents(conn))
    conn.close()
    refs = gc.get_referents(conn)
    refs += [
        value for ref in refs if isinstance(ref, dict) for value in ref.values()
    ]
    # One level further, into each referent (a Timer, a pending request,
    # a stream), but not into the loop and the path: packets still in
    # flight there are bound to the connection's receivers.
    shared = (conn.loop, conn.path)
    refs += [
        inner
        for ref in list(refs)
        if not any(ref is obj for obj in shared)
        for inner in gc.get_referents(ref)
    ]
    assert pending_events(refs) == []
    assert bound_to(refs, conn) == []
