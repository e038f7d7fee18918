"""Differential tests of congestion control, RTT and reassembly in C.

The C transport core runs the per-ACK arithmetic of an exact
``RttEstimator``, ``NewRenoController`` or ``CubicController`` in place,
and TCP's in-order and QUIC's per-stream reassembly without a Python
call.  Here the same seeded transfers run on the C core and on
``_PyTransportCore`` (the Python text of both), on both schedulers,
and must agree exactly: every ``ConnectionStats`` counter (HoL stalls
and their summed duration included), every field of the controller and
of the RTT estimator with its Python type, the order in which chunks
reach the application, and the traced ``transport:hol_stall_*``
events.  Controllers the core does not know (a strict-mode
``CheckedController``, BBR, a subclass) must still be called.
"""

import dataclasses
import random

import pytest

from repro.check import CheckContext
from repro.check.controller import CheckedController
from repro.events.loop import CEventLoop, HeapEventLoop, _ckernel
from repro.netsim import NetemProfile, NetworkPath
from repro.netsim.packet import Packet, PacketKind, StreamChunk
from repro.netsim.proxy import SegmentedPath
from repro.obs.trace import ConnectionTracer
from repro.transport import QuicConnection, TcpConnection
from repro.transport.base import ClientStream
from repro.transport.congestion import (
    BbrLikeController,
    CubicController,
    NewRenoController,
)
from repro.transport.rtt import RttEstimator
from tests.test_transport_core import python_core

#: Without the kernel both sides run ``_PyTransportCore``: the
#: comparisons then hold trivially, and the reach tests still run.
needs_kernel = pytest.mark.skipif(
    _ckernel is None, reason="C kernel not built on this host"
)

LOOPS = [
    pytest.param(HeapEventLoop, id="heap"),
    pytest.param(CEventLoop, id="c", marks=needs_kernel),
]

#: The loop of the single-scheduler tests.
DEFAULT_LOOP = CEventLoop or HeapEventLoop

PROTOCOLS = [
    pytest.param(TcpConnection, id="tcp"),
    pytest.param(QuicConnection, id="quic"),
]

MSS = 1460


class CountingNewReno(NewRenoController):
    """A subclass that overrides ``on_ack``: the core must call it."""

    __slots__ = ("acks",)

    def __init__(self, mss, initial_cwnd_packets=10):
        super().__init__(mss, initial_cwnd_packets)
        self.acks = 0

    def on_ack(self, acked_bytes, now_ms):
        self.acks += 1
        super().on_ack(acked_bytes, now_ms)


CONTROLLERS = {
    "newreno": NewRenoController,
    "cubic": CubicController,
    "newreno-subclass": CountingNewReno,
    "bbr": BbrLikeController,
    "strict": None,  # the default NewReno behind a CheckedController
}

PATHS = {
    "loss-0": dict(profile=NetemProfile(delay_ms=12.0, rate_mbps=20.0)),
    "loss-1": dict(profile=NetemProfile(delay_ms=12.0, loss_rate=0.01, rate_mbps=20.0)),
    "loss-3": dict(profile=NetemProfile(delay_ms=12.0, loss_rate=0.03, rate_mbps=20.0)),
    "jitter": dict(
        profile=NetemProfile(delay_ms=12.0, jitter_ms=5.0, loss_rate=0.02,
                             rate_mbps=20.0),
    ),
    "relayed": dict(
        segments=(
            NetemProfile(delay_ms=4.0, loss_rate=0.01, rate_mbps=40.0),
            NetemProfile(delay_ms=10.0, loss_rate=0.02, jitter_ms=1.0,
                         rate_mbps=25.0),
        ),
    ),
}

#: Requests as (request bytes, response bytes, think ms, weight).
STREAMS = (
    (400, 60_000, 0.0, 1),
    (300, 25_000, 2.0, 2),
    (500, 90_000, 0.0, 1),
    (200, 12_000, 1.0, 3),
)


def fields(obj):
    """Every field of a controller or estimator, by repr, with its type."""
    if isinstance(obj, CheckedController):
        return ("checked", fields(obj.inner))
    names = []
    for klass in type(obj).__mro__:
        names += getattr(klass, "__slots__", ())
    values = {name: getattr(obj, name) for name in names}
    values.update(getattr(obj, "__dict__", {}))
    return sorted(
        (name, type(value).__name__, repr(value)) for name, value in values.items()
    )


def transfer(conn_cls, loop_cls, *, controller, profile=None, segments=None,
             tracer=True, record=True, seed=5):
    """One seeded transfer; returns everything the comparison reads."""
    loop = loop_cls()
    if segments is None:
        path = NetworkPath(loop, profile, rng=random.Random(seed))
    else:
        path = SegmentedPath(loop, segments, rng=random.Random(seed),
                             forward_delay_ms=0.5, proxy_model="masque-relay")
    hooks = {}
    if tracer:
        hooks["tracer"] = ConnectionTracer("conn", conn_cls.protocol_name)
    cc_cls = CONTROLLERS[controller]
    if cc_cls is None:
        hooks["check"] = CheckContext(mode="collect")
    conn = conn_cls(
        loop, path,
        cc=cc_cls(MSS) if cc_cls is not None else None,
        server_think_ms=1.5,
        name="conn",
        **hooks,
    )
    delivered = []
    if record:
        deliver = conn._deliver_chunk

        def recorded(chunk):
            delivered.append((repr(loop.now), tuple(chunk)))
            deliver(chunk)

        conn._deliver_chunk = recorded
    established = []
    conn.connect(established.append)
    loop.run_until(lambda: bool(established))
    handles = [
        conn.request(req, resp, think_ms=think, weight=weight)
        for req, resp, think, weight in STREAMS
    ]
    loop.run(max_events=2_000_000)
    trace = []
    if tracer:
        trace = [
            (repr(event["time"]), event["name"], repr(event["data"]))
            for event in hooks["tracer"].events
            if event["name"].startswith("transport:hol_stall")
        ]
    return {
        "stats": [
            (name, type(value).__name__, repr(value))
            for name, value in dataclasses.asdict(conn.stats).items()
        ],
        "cc": fields(conn.cc),
        "rtt": fields(conn.rtt),
        "delivered": delivered,
        "hol_trace": trace,
        "streams": [(repr(s.t_first_byte), repr(s.t_complete), s.received)
                    for s in handles],
        "events": (loop.processed_events, loop.scheduled_events, repr(loop.now)),
        "checks": (
            (hooks["check"].checks_run, hooks["check"].render())
            if "check" in hooks else None
        ),
        "conn": conn,
    }


def assert_same(got, expected):
    for key in expected:
        if key != "conn":
            assert got[key] == expected[key], key


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("conn_cls", PROTOCOLS)
@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_c_core_matches_python_core(controller, path, conn_cls, loop_cls):
    kwargs = dict(controller=controller, **PATHS[path])
    expected = transfer(python_core(conn_cls), loop_cls, **kwargs)
    got = transfer(conn_cls, loop_cls, **kwargs)
    assert_same(got, expected)
    assert all(complete != "None" for _, complete, _ in got["streams"])
    if controller == "newreno-subclass":
        # The override ran once per newly acked packet on both cores.
        acks = got["conn"].cc.acks
        assert acks > 0 and acks == expected["conn"].cc.acks


@pytest.mark.parametrize("conn_cls", PROTOCOLS)
@pytest.mark.parametrize("controller", ["newreno", "cubic"])
def test_untraced_unrecorded_transfer_matches(controller, conn_cls):
    """No tracer and no delivery recorder: the all-C path end to end."""
    kwargs = dict(controller=controller, tracer=False, record=False,
                  **PATHS["loss-3"])
    expected = transfer(python_core(conn_cls), DEFAULT_LOOP, **kwargs)
    got = transfer(conn_cls, DEFAULT_LOOP, **kwargs)
    assert_same(got, expected)


class TestTransfersReachWhatTheyName:
    def test_lossy_paths_stall_and_reorder(self):
        for conn_cls in (TcpConnection, QuicConnection):
            for path in ("loss-3", "jitter", "relayed"):
                stats = dict(
                    (name, value) for name, _, value in transfer(
                        conn_cls, DEFAULT_LOOP, controller="newreno", **PATHS[path]
                    )["stats"]
                )
                assert int(stats["hol_stalls"]) > 0, (conn_cls, path)
                assert float(stats["hol_stall_ms"]) > 0.0, (conn_cls, path)

    def test_cubic_reaches_its_cubic_window(self):
        conn = transfer(TcpConnection, DEFAULT_LOOP, controller="cubic",
                        **PATHS["loss-3"])["conn"]
        assert conn.cc._w_max is not None and conn.cc.loss_events > 0

    def test_newreno_leaves_slow_start_with_a_float_window(self):
        conn = transfer(TcpConnection, DEFAULT_LOOP, controller="newreno",
                        **PATHS["loss-3"])["conn"]
        assert not conn.cc.in_slow_start
        assert type(conn.cc._cwnd) is float

    @needs_kernel
    def test_the_core_knows_exact_classes_only(self):
        native = _ckernel._native_model
        assert native(RttEstimator())
        assert native(NewRenoController(MSS)) and native(CubicController(MSS))
        assert not native(CountingNewReno(MSS))
        assert not native(BbrLikeController(MSS))
        assert not native(CheckedController(NewRenoController(MSS),
                                            CheckContext(mode="collect"), MSS))


def test_loss_free_newreno_window_stays_an_int():
    """Slow start only: ``_cwnd`` is an int on both cores, and equal."""
    kwargs = dict(controller="newreno", **PATHS["loss-0"])
    got = transfer(TcpConnection, DEFAULT_LOOP, **kwargs)
    expected = transfer(python_core(TcpConnection), DEFAULT_LOOP, **kwargs)
    assert got["cc"] == expected["cc"]
    assert type(got["conn"].cc._cwnd) is int


# -- Reassembly fed directly ----------------------------------------------


def fed_connection(conn_cls, loop_cls, tracer):
    loop = loop_cls()
    path = NetworkPath(loop, NetemProfile(delay_ms=5.0))
    hooks = {"tracer": ConnectionTracer("conn", "x")} if tracer else {}
    conn = conn_cls(loop, path, **hooks)
    delivered = []
    for stream_id in (1, 2, 3):
        conn.streams[stream_id] = ClientStream(
            stream_id, 100, 10_000, None,
            lambda now, stream_id=stream_id: delivered.append(("done", stream_id)),
            0.0,
        )
    return loop, conn, delivered, hooks


def packet_schedule(seed):
    """Multi-chunk data packets over three streams, shuffled, some
    repeated: gaps, duplicates and out-of-order arrivals."""
    rng = random.Random(seed)
    offsets = {1: 0, 2: 0, 3: 0}
    packets = []
    conn_start = 0
    while any(offset < 10_000 for offset in offsets.values()):
        chunks = []
        for _ in range(rng.randint(1, 3)):
            open_streams = [s for s, offset in offsets.items() if offset < 10_000]
            if not open_streams:
                break
            stream_id = rng.choice(open_streams)
            size = min(rng.randint(200, 1400), 10_000 - offsets[stream_id])
            chunks.append(StreamChunk(stream_id, offsets[stream_id], size,
                                      offsets[stream_id] + size >= 10_000))
            offsets[stream_id] += size
        packets.append((conn_start, tuple(chunks)))
        conn_start += sum(chunk.size for chunk in chunks)
    order = list(packets)
    for _ in range(len(order) // 2):
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[j] = order[j], order[i]
    order += rng.sample(packets, len(packets) // 4)  # duplicates
    return order


def feed(conn_cls, loop_cls, seed, tracer):
    loop, conn, delivered, hooks = fed_connection(conn_cls, loop_cls, tracer)
    deliver = conn._deliver_chunk

    def recorded(chunk):
        delivered.append(tuple(chunk))
        deliver(chunk)

    conn._deliver_chunk = recorded
    for step, (conn_start, chunks) in enumerate(packet_schedule(seed)):
        loop.call_at(float(step), lambda c=chunks, s=conn_start: conn._on_data_packet_received(
            Packet(PacketKind.DATA, chunks=c, conn_start=s)
        ))
    loop.run()
    if issubclass(conn_cls, TcpConnection):
        state = (conn._rcv_next, conn.reorder_buffer_bytes,
                 sorted(conn._reorder_buffer), repr(conn._stall_started_at))
    else:
        state = (sorted(conn._stream_rcv_next.items()), conn.buffered_chunks,
                 sorted(conn._stream_stall_started.items()))
    trace = repr(hooks["tracer"].events) if tracer else None
    return delivered, state, repr(dataclasses.astuple(conn.stats)), trace


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("conn_cls", PROTOCOLS)
@pytest.mark.parametrize("tracer", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fed_reassembly_matches(seed, tracer, conn_cls, loop_cls):
    expected = feed(python_core(conn_cls), loop_cls, seed, tracer)
    got = feed(conn_cls, loop_cls, seed, tracer)
    assert got == expected
    delivered = got[0]
    # Every stream completed, each exactly once.
    assert sorted(e for e in delivered if e[0] == "done") == [
        ("done", 1), ("done", 2), ("done", 3)
    ]


def test_subclass_reassembly_override_is_called():
    calls = []

    class Audited(TcpConnection):
        def _on_data_packet_received(self, pkt):
            calls.append(pkt.seq)
            super()._on_data_packet_received(pkt)

    got = transfer(Audited, DEFAULT_LOOP, controller="newreno", **PATHS["loss-1"])
    assert len(calls) >= got["conn"].stats.data_packets_sent - got["conn"].stats.data_packets_lost
    assert all(complete != "None" for _, complete, _ in got["streams"])
