"""Differential tests of the request exchange in the C transport core.

``request()`` opens a stream and sends its request packets, each with a
retransmission timeout; the server acks each packet, reassembles the
request and, after the stream's think time, queues the response for the
send burst.  The C transport core runs that exchange without a Python
call.  Here the same seeded exchanges run on the C core and on
``_PyTransportCore`` (the Python text of both), on both schedulers, and
must agree exactly: every packet sent (with its chunks, size, send time
and retransmission flag) and every link delivery in order, the order in
which streams reach the application, the loop's event counts, every
``ConnectionStats`` counter, the RTT estimator's fields with their
types, the pending request packets (their timeout events' times and
sequence numbers included), the client and server stream state, the
traced events and the errors raised or reported.
"""

import dataclasses
import random

import pytest

from repro.events.loop import CEventLoop, HeapEventLoop, _ckernel
from repro.netsim import NetemProfile, NetworkPath, PacketKind
from repro.netsim import packet as packet_module
from repro.obs.trace import ConnectionTracer
from repro.transport import QuicConnection, TcpConnection, TransportConfig
from repro.transport.base import TransportError, _PyTransportCore
from tests.test_transport_core import python_core, record_deliveries

#: Without the kernel both sides run ``_PyTransportCore``: the
#: comparisons then hold trivially, and the reach tests still run.
needs_kernel = pytest.mark.skipif(
    _ckernel is None, reason="C kernel not built on this host"
)

LOOPS = [
    pytest.param(HeapEventLoop, id="heap"),
    pytest.param(CEventLoop, id="c", marks=needs_kernel),
]

PROTOCOLS = [
    pytest.param(TcpConnection, id="tcp"),
    pytest.param(QuicConnection, id="quic"),
]

#: The loop of the single-scheduler tests.
DEFAULT_LOOP = CEventLoop or HeapEventLoop


class LoggedExchange:
    """Overrides two of the moved methods: the core must call them."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.enqueued = []
        self.request_acks = []

    def _server_enqueue_response(self, sstream):
        self.enqueued.append((sstream.stream_id, repr(self.loop.now)))
        super()._server_enqueue_response(sstream)

    def _client_on_request_ack(self, pkt):
        self.request_acks.append(pkt.ack_seq)
        super()._client_on_request_ack(pkt)


def logged(conn_cls):
    return type(f"Logged{conn_cls.__name__}", (LoggedExchange, conn_cls), {})


def variants(conn_cls, override):
    """(C core class, Python core class) for one scenario."""
    if override:
        return logged(conn_cls), logged(python_core(conn_cls))
    return conn_cls, python_core(conn_cls)


#: Requests as (request bytes, response bytes, think ms, weight); think
#: None takes the connection's default (2 ms).
SINGLE = ((400, 6_000, 0.0, 1),)
MIXED = (
    (400, 20_000, 0.0, 1),
    (3_000, 9_000, 3.0, 2),  # three request packets, the last one short
    (2_920, 4_000, None, 1),  # exactly two MSS-sized packets
    (700, 12_000, 1.5, 3),
)
MANY = tuple((900 + 37 * i, 3_000 + 211 * i, 0.5 * (i % 3), 1) for i in range(24))

LOSSY = NetemProfile(delay_ms=12.0, loss_rate=0.03, rate_mbps=20.0)

SCENARIOS = {
    "single-chunk": dict(requests=SINGLE),
    "multi-chunk-think": dict(requests=MIXED),
    "lossy-retries": dict(requests=MANY, profile=LOSSY),
    "duplicated-requests": dict(requests=MIXED, duplicate=True),
    "exhausted-raises": dict(requests=MIXED, drop_requests=True),
    "exhausted-on-error": dict(requests=MIXED, drop_requests=True, on_error=True),
    "traced": dict(requests=MIXED, profile=LOSSY, tracer=True, duplicate=True),
    "override": dict(requests=MIXED, profile=LOSSY, override=True),
    "override-exhausted": dict(
        requests=SINGLE, drop_requests=True, on_error=True, override=True
    ),
}


def client_state(conn):
    return [
        (sid, s.stream_id, s.request_bytes, s.response_bytes, repr(s.opened_at),
         s.received, repr(s.t_first_byte), repr(s.t_complete),
         s.on_first_byte is None, s.on_complete is None, type(s).__name__)
        for sid, s in conn.streams.items()
    ]


def server_state(conn):
    return [
        (sid, s.stream_id, s.response_bytes, repr(s.think_ms), s.weight,
         s.request_received, s.request_total, sorted(s.request_offsets),
         s.response_queued, s.next_offset, type(s).__name__)
        for sid, s in conn._server_streams.items()
    ]


def pending_state(conn):
    return [
        (seq, p.packet.seq, p.packet.chunks, p.packet.size_bytes,
         p.packet.payload_bytes, repr(p.packet.sent_at), p.packet.retransmission,
         p.tries, p.timeout.cancelled, repr(p.timeout.time), p.timeout.seq,
         type(p).__name__)
        for seq, p in conn._pending_requests.items()
    ]


def snapshot(conn, loop):
    rtt = conn.rtt
    return {
        "events": (loop.processed_events, loop.scheduled_events, repr(loop.now)),
        "stats": repr(dataclasses.astuple(conn.stats)),
        "rtt": repr((rtt.srtt_ms, rtt.rttvar_ms, rtt.rto_ms, rtt.samples,
                     rtt.latest_sample_ms)),
        "clients": client_state(conn),
        "servers": server_state(conn),
        "pending": pending_state(conn),
        "send_queue": list(conn._send_queue),
        "closed": conn.closed,
    }


def exchange(
    conn_cls,
    loop_cls,
    *,
    requests,
    profile=NetemProfile(delay_ms=12.0, rate_mbps=20.0),
    duplicate=False,
    drop_requests=False,
    on_error=False,
    tracer=False,
    resumed=False,
    seed=7,
):
    """One seeded handshake and request batch; returns what it observed."""
    loop = loop_cls()
    first_uid = next(packet_module._packet_ids)
    path = NetworkPath(loop, profile, rng=random.Random(seed))
    deliveries = []
    record_deliveries(path, loop, deliveries, first_uid)
    if drop_requests:
        path.uplink.drop_filter = lambda pkt: pkt.kind is PacketKind.DATA
    sends = []
    for direction in ("send_to_server", "send_to_client"):

        def send(pkt, on_deliver, inner=getattr(path, direction), direction=direction):
            sends.append((
                direction, repr(loop.now), pkt.uid - first_uid, pkt.kind.value,
                pkt.seq, pkt.ack_seq, pkt.sack, pkt.chunks, pkt.size_bytes,
                pkt.payload_bytes, repr(pkt.sent_at), pkt.retransmission,
            ))
            copies = (
                2 if duplicate and direction == "send_to_server"
                and pkt.kind is PacketKind.DATA else 1
            )
            for _ in range(copies):
                inner(pkt, on_deliver)

        setattr(path, direction, send)
    kwargs = {"resumed": True} if resumed else {}
    hooks = {"tracer": ConnectionTracer("conn", conn_cls.protocol_name)} if tracer else {}
    conn = conn_cls(
        loop,
        path,
        config=TransportConfig(max_request_retries=3) if drop_requests else None,
        server_think_ms=2.0,
        name="conn",
        **hooks,
        **kwargs,
    )
    errors = []
    established = []
    conn.connect(established.append)
    loop.run_until(lambda: bool(established))
    if on_error:
        conn.on_error = lambda error: errors.append((repr(loop.now), repr(error)))
    app = []
    for i, (req, resp, think, weight) in enumerate(requests):
        conn.request(
            req, resp, think_ms=think, weight=weight,
            on_first_byte=lambda t, i=i: app.append((i, "first", repr(t))),
            on_complete=lambda t, i=i: app.append((i, "complete", repr(t))),
        )
    issued = snapshot(conn, loop)
    loop.run(until_ms=loop.now + 30.0)
    mid_run = snapshot(conn, loop)
    raised = None
    try:
        loop.run(max_events=2_000_000)
    except TransportError as error:
        raised = (repr(error), repr(loop.now))
    return {
        "issued": issued,
        "mid_run": mid_run,
        "done": snapshot(conn, loop),
        "sends": sends,
        "deliveries": deliveries,
        "app": app,
        "raised": raised,
        "errors": errors,
        "trace": repr(hooks["tracer"].events) if tracer else None,
        "enqueued": getattr(conn, "enqueued", None),
        "request_acks": getattr(conn, "request_acks", None),
    }


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("conn_cls", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_c_core_matches_python_core(scenario, conn_cls, loop_cls):
    kwargs = dict(SCENARIOS[scenario])
    c_cls, py_cls = variants(conn_cls, kwargs.pop("override", False))
    expected = exchange(py_cls, loop_cls, **kwargs)
    got = exchange(c_cls, loop_cls, **kwargs)
    for key in expected:
        assert got[key] == expected[key], key


@pytest.mark.parametrize("loop_cls", LOOPS)
def test_zero_rtt_requests_match(loop_cls):
    """0-RTT: the requests leave before any RTT sample exists."""
    expected = exchange(python_core(QuicConnection), loop_cls, requests=MIXED,
                        resumed=True)
    got = exchange(QuicConnection, loop_cls, requests=MIXED, resumed=True)
    assert got == expected


class TestScenariosReachWhatTheyName:
    """The differential exchanges really exercise their mechanisms."""

    @staticmethod
    def run(scenario, conn_cls=TcpConnection):
        kwargs = dict(SCENARIOS[scenario])
        c_cls, _ = variants(conn_cls, kwargs.pop("override", False))
        return exchange(c_cls, DEFAULT_LOOP, **kwargs)

    @staticmethod
    def request_packets(observed):
        return [
            send for send in observed["sends"]
            if send[0] == "send_to_server" and send[3] == "data"
        ]

    def test_single_and_multi_chunk_requests(self):
        (single,) = self.request_packets(self.run("single-chunk"))
        assert len(single[7]) == 1 and single[7][0].fin
        packets = self.request_packets(self.run("multi-chunk-think"))
        by_stream = {}
        for send in packets:
            (chunk,) = send[7]
            by_stream.setdefault(chunk.stream_id, []).append(chunk)
        assert [len(chunks) for chunks in by_stream.values()] == [1, 3, 2, 1]
        assert all(chunks[-1].fin and not any(c.fin for c in chunks[:-1])
                   for chunks in by_stream.values())

    def test_think_times_delay_the_response(self):
        done = self.run("multi-chunk-think")["done"]
        assert {server[3] for server in done["servers"]} == {"0.0", "3.0", "2.0", "1.5"}
        assert all(server[8] for server in done["servers"])
        assert done["pending"] == []

    def test_lossy_path_retransmits_requests_with_backoff(self):
        observed = self.run("lossy-retries")
        stats = observed["done"]["stats"]
        retransmitted = [send for send in self.request_packets(observed) if send[11]]
        assert retransmitted and "request_retransmissions=0" not in stats
        assert len(observed["app"]) == 2 * len(MANY)

    def test_exhausted_retries_raise_or_report(self):
        raised = self.run("exhausted-raises")
        assert raised["raised"] is not None
        assert "request packet lost 4 times" in raised["raised"][0]
        reported = self.run("exhausted-on-error")
        assert reported["raised"] is None and reported["done"]["closed"]
        ((_, error),) = reported["errors"]
        assert "request packet lost 4 times" in error
        # The timeouts backed off: each resend waited twice as long.
        sends = [float(send[1]) for send in self.request_packets(reported)
                 if send[7][0].stream_id == 1]
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert len(gaps) == 3
        assert gaps[1] == pytest.approx(2 * gaps[0])
        assert gaps[2] == pytest.approx(2 * gaps[1])

    def test_duplicated_request_chunks_are_absorbed_once(self):
        observed = self.run("duplicated-requests")
        request_copies = [
            d[2] for d in observed["deliveries"] if d[0] == "path-up" and d[3] == "data"
        ]
        sent = [send[2] for send in self.request_packets(observed)]
        assert sorted(request_copies) == sorted(sent + sent)
        for server in observed["done"]["servers"]:
            assert server[5] == server[6]  # request_received == request_total

    def test_traced_exchange_records_streams_and_request_packets(self):
        trace = self.run("traced")["trace"]
        assert "http:stream_opened" in trace and "'c2s'" in trace

    def test_overrides_are_called(self):
        observed = self.run("override")
        assert len(observed["enqueued"]) == len(MIXED)
        assert observed["request_acks"]

    def test_variants_run_the_core_they_name(self):
        moved = ("request", "_send_request_packet", "_on_request_timeout",
                 "_client_on_request_ack", "_server_absorb_request_chunk",
                 "_server_enqueue_response")
        for conn_cls in (TcpConnection, QuicConnection):
            for name in moved:
                assert getattr(python_core(conn_cls), name) is getattr(
                    _PyTransportCore, name
                )
                if _ckernel is not None:
                    assert getattr(conn_cls, name) is vars(_ckernel.TransportCore)[name]


class TestRequestArguments:
    """Argument binding and the errors ``request`` raises, on both cores."""

    @staticmethod
    def connection(conn_cls, loop_cls=DEFAULT_LOOP):
        loop = loop_cls()
        conn = conn_cls(loop, NetworkPath(loop, NetemProfile(delay_ms=5.0)))
        return loop, conn

    @pytest.mark.parametrize("core", ["c", "python"])
    def test_binding_and_errors(self, core):
        cls = TcpConnection if core == "c" else python_core(TcpConnection)
        loop, conn = self.connection(cls)
        with pytest.raises(TransportError, match="connection not ready for requests"):
            conn.request(400, 1000)
        established = []
        conn.connect(established.append)
        loop.run_until(lambda: bool(established))
        with pytest.raises(ValueError, match="sizes must be positive"):
            conn.request(0, 1000)
        with pytest.raises(ValueError, match="sizes must be positive"):
            conn.request(400, -1)
        with pytest.raises(TypeError):
            conn.request(400)
        with pytest.raises(TypeError):
            conn.request(400, 1000, colour="red")
        with pytest.raises(TypeError):
            conn.request(400, 1000, request_bytes=400)
        stream = conn.request(response_bytes=3000, request_bytes=500, weight=0)
        assert (stream.request_bytes, stream.response_bytes) == (500, 3000)
        assert conn._server_streams[stream.stream_id].weight == 1
        conn.close()
        assert not conn.can_send_requests
        with pytest.raises(TransportError):
            conn.request(400, 1000)
