"""Faulted, relayed and lossy paths without per-packet Python.

Four mechanisms, each checked against the code it replaced:

* **Fault windows.**  A :class:`FaultedPath` compiles the windows that
  can drop its connection's packets once and tests them per packet (in
  C when the kernel is built).  Its verdicts must equal
  :meth:`FaultInjector.packet_dropped` over a grid of times, hosts and
  kinds, including a connection re-anchored by ``begin_visit``.
* **Relay hops.**  A :class:`SegmentedPath` wires each link to relay
  into the next hop.  Deliveries ``(loop.now, uid)``, the loop's
  ``scheduled_events``/``processed_events`` and every segment's
  ``LinkStats`` must equal those of the per-packet forwarding closure
  the path used before (kept here as the reference), on either link
  core and either scheduler.
* **Bernoulli draws.**  ``LinkCore`` draws a ``BernoulliLoss`` itself:
  the same verdicts and the same RNG state as ``should_drop``; a
  subclass keeps its own ``should_drop``.
* **Cancel releases.**  A cancelled event holds neither its callback
  nor its arguments.

Plus the two allocation fixes that ride along: a pool ``Fetch``
compares by identity, and DNS retries under faults form no cycle of
closures or request objects.
"""

import collections
import dataclasses
import gc
import math
import random
import weakref

import pytest

import repro.faults.inject as inject_module
from repro.browser import Browser, BrowserConfig
from repro.browser.browser import _PageLoad, _Request
from repro.browser.har import HarEntry
from repro.events.loop import CEventLoop, HeapEventLoop, _ckernel
from repro.faults import FaultInjector
from repro.faults.inject import FaultedPath
from repro.faults.profile import FaultEvent, FaultProfile, RetryPolicy
from repro.http import ConnectionPool, HttpProtocol
from repro.http.pool import _PooledConnection
from repro.measurement import ProbeNetProfile, ServerFarm
from repro.netsim import (
    BernoulliLoss,
    NetemProfile,
    NetworkPath,
    Packet,
    PacketKind,
    SegmentedPath,
    StreamChunk,
)
from repro.netsim.link import Link, _PyLinkCore
import repro.netsim.proxy as proxy_module
from repro.web import GeneratorConfig, TopSitesGenerator
from tests.test_http_pool import CallbackFetch, fetch_one, make_edge, make_path

LOOPS = [pytest.param(HeapEventLoop, id="heap")]
if CEventLoop is not None:
    LOOPS.append(pytest.param(CEventLoop, id="c"))

#: Link cores to run the relay chains on: the one ``Link`` uses, and
#: the pure-Python oracle when that is a different one.
CORES = [pytest.param(None, id="default")]
if _ckernel is not None:
    CORES.append(pytest.param(_PyLinkCore, id="python"))


def with_core(core):
    """``Link`` with its own methods over ``core``."""
    namespace = {
        name: value
        for name, value in vars(Link).items()
        if name not in ("__dict__", "__weakref__")
    }
    return type(f"Link_{core.__name__}", (core,), namespace)


def data_packet(seq, size=1200):
    return Packet(PacketKind.DATA, seq=seq, chunks=(StreamChunk(1, seq * 1500, size),))


def advance(loop, t):
    """Move ``loop.now`` to ``t`` with one no-op event."""
    loop.call_at(t, int)
    loop.run()


# -- fault windows ---------------------------------------------------------


class RecordingPath:
    """A stand-in path: its sends record the packet and return True."""

    def __init__(self):
        self.sent = []
        self.send_to_server = self._send
        self.send_to_client = self._send
        self.uplink = self.downlink = None

    def _send(self, packet, on_deliver):
        self.sent.append(packet.uid)
        return True


HOSTS = tuple(f"h{i}.example" for i in range(12))

PROFILE = FaultProfile(
    events=(
        FaultEvent("blackout", start_ms=10.0, end_ms=25.0, hosts=("h1.example",)),
        FaultEvent("udp_blackhole", start_ms=40.0, end_ms=60.0),
        FaultEvent("nat_rebind", start_ms=80.0, end_ms=95.5, host_fraction=0.5, salt=3),
        FaultEvent("wifi_to_cellular", start_ms=120.0, host_fraction=0.25, salt=7),
        # Kinds that never drop packets: no window of theirs is compiled.
        FaultEvent("dns_failure", start_ms=0.0, end_ms=200.0),
        FaultEvent("edge_outage", start_ms=5.0),
        FaultEvent("connection_reset", start_ms=30.0, end_ms=31.0),
        FaultEvent("zero_rtt_reject", start_ms=0.0),
    )
)

#: Window edges, points inside and outside, and far past every window.
TIMES = (0.0, 9.999, 10.0, 17.5, 24.999, 25.0, 39.0, 40.0, 59.99, 60.0,
         79.5, 80.0, 95.49, 95.5, 119.9, 120.0, 500.0, 1e9)


@pytest.fixture(params=["kernel", "python"])
def send_form(request, monkeypatch):
    """Compile windows into ``_ckernel.WindowedSend`` or the closure."""
    if request.param == "kernel":
        if _ckernel is None:
            pytest.skip("C kernel not built on this host")
    else:
        monkeypatch.setattr(inject_module, "_ckernel", None)
    return request.param


class TestFaultWindows:
    @pytest.mark.parametrize("loop_cls", LOOPS)
    def test_verdicts_equal_packet_dropped(self, loop_cls, send_form):
        loop = loop_cls()
        injector = FaultInjector(PROFILE, loop)
        injector.begin_visit()
        views = [
            (host, quic, FaultedPath(RecordingPath(), injector, host, quic))
            for host in HOSTS
            for quic in (False, True)
        ]
        verdicts = collections.Counter()
        packet = data_packet(0)
        for t in TIMES:
            advance(loop, t)
            for host, quic, view in views:
                dropped = injector.packet_dropped(host, quic)
                assert view.send_to_server(packet, None) is (not dropped), (t, host, quic)
                assert view.send_to_client(packet, None) is (not dropped), (t, host, quic)
                verdicts[dropped] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_grid_covers_what_it_names(self):
        injector = FaultInjector(PROFILE, HeapEventLoop())
        by_kind = {event.kind: event for event in PROFILE.events}
        # host_fraction < 1 targets some hosts and spares others.
        for kind in ("nat_rebind", "wifi_to_cellular"):
            hit = {by_kind[kind].targets(host) for host in HOSTS}
            assert hit == {True, False}, kind
        assert math.isinf(by_kind["wifi_to_cellular"].end_ms)
        # udp_blackhole drops QUIC packets only.
        tcp = FaultedPath(RecordingPath(), injector, "h0.example", quic=False)
        quic = FaultedPath(RecordingPath(), injector, "h0.example", quic=True)
        assert (40.0, 60.0) in quic._windows
        assert (40.0, 60.0) not in tcp._windows
        # Only dropping kinds are compiled.
        kinds = {(e.start_ms, e.end_ms): e.kind for e in PROFILE.events}
        assert {kinds[w] for w in quic._windows} <= {
            "blackout", "udp_blackhole", "nat_rebind", "wifi_to_cellular"
        }

    @pytest.mark.parametrize("loop_cls", LOOPS)
    def test_windows_move_with_begin_visit(self, loop_cls, send_form):
        """A connection that outlives its visit sees the next visit's
        windows: the anchor is read at send time."""
        loop = loop_cls()
        profile = FaultProfile(events=(FaultEvent("blackout", 10.0, 20.0),))
        injector = FaultInjector(profile, loop)
        injector.begin_visit()
        view = FaultedPath(RecordingPath(), injector, "a.example", quic=False)
        packet = data_packet(0)
        checks = []
        for anchor in (0.0, 300.0, 1000.25):
            advance(loop, anchor)
            injector.begin_visit()
            for offset in (0.0, 9.9, 10.0, 19.99, 20.0, 45.0):
                advance(loop, anchor + offset)
                expected = not injector.packet_dropped("a.example", False)
                got = view.send_to_server(packet, None)
                assert got is expected, (anchor, offset)
                checks.append(got)
        assert checks.count(False) == 6  # [10, 20) after each anchor

    def test_no_window_is_the_paths_own_send(self):
        loop = HeapEventLoop()
        path = NetworkPath(loop, NetemProfile(delay_ms=5.0))
        injector = FaultInjector(FaultProfile(), loop)
        view = FaultedPath(path, injector, "a.example", quic=True)
        assert view.send_to_server == path.uplink.transmit
        assert view.send_to_client == path.downlink.transmit
        # A udp_blackhole never touches TCP: no window, no wrapper.
        udp = FaultInjector(FaultProfile(events=(FaultEvent("udp_blackhole"),)), loop)
        tcp_view = FaultedPath(path, udp, "a.example", quic=False)
        assert tcp_view.send_to_server == path.uplink.transmit

    def test_windowed_send_type(self, send_form):
        loop = HeapEventLoop()
        injector = FaultInjector(PROFILE, loop)
        view = FaultedPath(NetworkPath(loop, NetemProfile(delay_ms=5.0)), injector,
                           "h1.example", quic=True)
        if send_form == "kernel":
            assert type(view.send_to_server) is _ckernel.WindowedSend
        else:
            assert type(view.send_to_server).__name__ == "function"

    def test_sends_hold_no_faulted_path(self, send_form):
        loop = HeapEventLoop()
        injector = FaultInjector(PROFILE, loop)
        view = FaultedPath(NetworkPath(loop, NetemProfile(delay_ms=5.0)), injector,
                           "h1.example", quic=True)
        for send in (view.send_to_server, view.send_to_client):
            held = gc.get_referents(send)
            # A closure holds its values through cells.
            held += [c.cell_contents for c in getattr(send, "__closure__", None) or ()]
            assert injector in held
            assert not any(obj is view for obj in held)
        packet = data_packet(0)
        advance(loop, 12.0)
        assert view.send_to_server(packet, None) is False  # h1's blackout
        advance(loop, 30.0)
        assert view.send_to_server(packet, lambda p: None) is True

    def test_dropped_packet_never_reaches_the_path(self, send_form):
        loop = HeapEventLoop()
        injector = FaultInjector(PROFILE, loop)
        inner = RecordingPath()
        view = FaultedPath(inner, injector, "h1.example", quic=False)
        advance(loop, 12.0)
        assert view.send_to_client(data_packet(1), None) is False
        advance(loop, 25.0)
        assert view.send_to_client(data_packet(2), None) is True
        assert len(inner.sent) == 1


# -- relay hops ------------------------------------------------------------


def closure_forward(path, chain, hop, packet, on_deliver):
    """The per-packet forwarding ``SegmentedPath`` used before its links
    relayed: one closure per hop, ``call_later`` for the forward delay."""
    link = chain[hop]
    if hop == len(chain) - 1:
        return link.transmit(packet, on_deliver)

    def relay(pkt):
        if path.forward_delay_ms > 0:
            path.loop.call_later(
                path.forward_delay_ms,
                closure_forward, path, chain, hop + 1, pkt, on_deliver,
            )
        else:
            closure_forward(path, chain, hop + 1, pkt, on_deliver)

    return link.transmit(packet, relay)


class LoggingSampler:
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_transmit(self, now, tx_done, size_bytes):
        self.log.append(("sample", self.name, repr(now), repr(tx_done), size_bytes))


def run_chain(loop_cls, n_segments, forward_delay_ms, *, core=None, reference=False):
    """Push a seeded script of packets both ways through a segmented path."""
    log = []
    loop = loop_cls()
    profiles = tuple(
        NetemProfile(
            delay_ms=4.0 + 3.0 * i,
            rate_mbps=(20.0, 50.0, 8.0)[i],
            loss_rate=(0.05, 0.08, 0.1)[i],
            jitter_ms=(1.5, 0.0, 2.0)[i],
        )
        for i in range(n_segments)
    )
    path = SegmentedPath(loop, profiles, rng=random.Random(17),
                         forward_delay_ms=forward_delay_ms, proxy_model="masque-relay")
    links = path.uplinks + path.downlinks
    for link in links:
        link.sampler = LoggingSampler(link.name, log)
    if reference:
        for link in links:
            link.relay = None
        send_up = lambda p, cb: closure_forward(path, path.uplinks, 0, p, cb)
        send_down = lambda p, cb: closure_forward(path, path.downlinks[::-1], 0, p, cb)
    else:
        send_up, send_down = path.send_to_server, path.send_to_client

    script = random.Random(9)
    packets = [data_packet(i, size=script.randrange(200, 1400)) for i in range(160)]
    first = packets[0].uid

    def at_server(packet):
        log.append(("server", repr(loop.now), packet.uid - first))

    def at_client(packet):
        log.append(("client", repr(loop.now), packet.uid - first))

    for packet in packets:
        loop.run(until_ms=loop.now + script.choice((0.0, 0.1, 0.7, 3.0)))
        if script.random() < 0.5:
            sent = send_up(packet, at_server)
        else:
            sent = send_down(packet, at_client)
        log.append(("sent", packet.uid - first, sent))
    loop.run()
    return {
        "log": log,
        "scheduled": loop.scheduled_events,
        "processed": loop.processed_events,
        "stats": [repr(dataclasses.astuple(link.stats)) for link in links],
        "rng": [link.rng.getstate() for link in links],
    }


class TestRelayChains:
    @pytest.mark.parametrize("loop_cls", LOOPS)
    @pytest.mark.parametrize("forward_delay_ms", [0.0, 2.5])
    @pytest.mark.parametrize("n_segments", [2, 3])
    @pytest.mark.parametrize("core", CORES)
    def test_wired_chain_equals_closure_forwarding(
        self, core, n_segments, forward_delay_ms, loop_cls, monkeypatch
    ):
        """Both link cores match the same reference exactly, so
        ``LinkCore`` and ``_PyLinkCore`` match each other."""
        if core is not None:
            monkeypatch.setattr(proxy_module, "Link", with_core(core))
        expected = run_chain(loop_cls, n_segments, forward_delay_ms, reference=True)
        got = run_chain(loop_cls, n_segments, forward_delay_ms)
        assert got == expected

    def test_chains_exercise_loss_on_every_segment(self):
        observed = run_chain(HeapEventLoop, 3, 2.5)
        # astuple(LinkStats): sent, dropped, delivered, ...
        dropped = [int(row.strip("()").split(",")[1]) for row in observed["stats"]]
        assert all(n > 0 for n in dropped), dropped
        kinds = collections.Counter(entry[0] for entry in observed["log"])
        assert kinds["server"] > 50 and kinds["client"] > 50

    def test_sends_are_the_first_links_transmit(self):
        path = SegmentedPath(HeapEventLoop(), (NetemProfile(delay_ms=5.0),) * 3)
        assert path.send_to_server == path.uplinks[0].transmit
        assert path.send_to_client == path.downlinks[-1].transmit
        assert path.uplinks[0].relay == path.uplinks[1].transmit
        assert path.uplinks[1].relay == path.uplinks[2].transmit
        assert path.uplinks[2].relay is None
        assert path.downlinks[2].relay == path.downlinks[1].transmit
        assert path.downlinks[1].relay == path.downlinks[0].transmit
        assert path.downlinks[0].relay is None

    @pytest.mark.parametrize("loop_cls", LOOPS)
    def test_interior_drop_is_silent(self, loop_cls):
        loop = loop_cls()
        path = SegmentedPath(loop, (NetemProfile(delay_ms=5.0),) * 2)
        path.uplinks[1].drop_filter = lambda packet: True
        delivered = []
        assert path.send_to_server(data_packet(0), delivered.append) is True
        loop.run()
        assert delivered == []
        assert path.uplinks[1].stats.dropped_packets == 1
        path.uplinks[0].drop_filter = lambda packet: True
        assert path.send_to_server(data_packet(1), delivered.append) is False

    @pytest.mark.parametrize("loop_cls", LOOPS)
    def test_forward_delay_is_one_more_event_per_hop(self, loop_cls):
        counts = {}
        for delay in (0.0, 2.5):
            loop = loop_cls()
            path = SegmentedPath(loop, (NetemProfile(delay_ms=5.0, rate_mbps=None),) * 3,
                                 forward_delay_ms=delay)
            arrived = []
            path.send_to_server(data_packet(0), lambda p: arrived.append(loop.now))
            loop.run()
            counts[delay] = (loop.processed_events, arrived)
        assert counts[0.0] == (3, [15.0])
        assert counts[2.5] == (5, [20.0])


# -- Bernoulli draws -------------------------------------------------------


class TestBernoulliDraw:
    @pytest.mark.parametrize("loop_cls", LOOPS)
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 0.999])
    def test_link_draw_equals_should_drop(self, rate, loop_cls):
        loop = loop_cls()
        link = Link(loop, delay_ms=1.0, loss=BernoulliLoss(rate), rng=random.Random(5))
        oracle_rng = random.Random(5)
        oracle = BernoulliLoss(rate)
        for i in range(400):
            sent = link.transmit(data_packet(i), lambda p: None)
            assert sent is (not oracle.should_drop(oracle_rng)), i
        assert link.rng.getstate() == oracle_rng.getstate()
        if rate == 0.0:
            assert link.rng.getstate() == random.Random(5).getstate()

    def test_loss_rate_is_read_per_packet(self):
        loop = HeapEventLoop()
        loss = BernoulliLoss(0.5)
        link = Link(loop, delay_ms=1.0, loss=loss, rng=random.Random(2))
        oracle_rng = random.Random(2)
        for i in range(300):
            loss.loss_rate = (0.0, 0.5, 0.9)[i % 3]
            expected = BernoulliLoss(loss.loss_rate).should_drop(oracle_rng)
            assert link.transmit(data_packet(i), lambda p: None) is (not expected)
        assert link.rng.getstate() == oracle_rng.getstate()

    def test_subclass_should_drop_is_still_called(self):
        calls = []

        class Scripted(BernoulliLoss):
            def should_drop(self, rng):
                calls.append(1)
                return len(calls) % 2 == 0

        link = Link(HeapEventLoop(), delay_ms=1.0, loss=Scripted(0.5), rng=random.Random(1))
        verdicts = [link.transmit(data_packet(i), lambda p: None) for i in range(6)]
        assert len(calls) == 6
        assert verdicts == [True, False] * 3
        assert link.rng.getstate() == random.Random(1).getstate()

    def test_drop_filter_still_runs_after_a_loss_drop(self):
        seen = []
        link = Link(HeapEventLoop(), delay_ms=1.0, loss=BernoulliLoss(0.999),
                    rng=random.Random(3))
        link.drop_filter = lambda packet: seen.append(packet.seq) or False
        assert link.transmit(data_packet(7), lambda p: None) is False
        assert seen == [7]


# -- cancel releases ---------------------------------------------------------


class TestCancelReleases:
    @pytest.mark.parametrize("loop_cls", LOOPS)
    def test_cancelled_event_holds_no_callback_or_args(self, loop_cls):
        loop = loop_cls()

        class Payload:
            pass

        def callback(payload):
            raise AssertionError("a cancelled event ran")

        payload = Payload()
        event = loop.call_later(5.0, callback, payload)
        assert callback in gc.get_referents(event)
        assert payload in gc.get_referents(event.args)
        event.cancel()
        referents = gc.get_referents(event)
        assert callback not in referents
        assert all(payload not in gc.get_referents(r) for r in referents
                   if isinstance(r, tuple))
        assert payload not in referents
        assert event.callback is None and event.args == ()
        assert event.cancelled
        # The payload dies by reference counting while the dead event
        # still waits in the queue.
        ref = weakref.ref(payload)
        del payload
        assert ref() is None
        event.cancel()  # double cancel stays harmless
        loop.run()
        assert loop.processed_events == 0 and len(loop) == 0

    @pytest.mark.parametrize("loop_cls", LOOPS)
    def test_event_cancelling_itself_while_running(self, loop_cls):
        loop = loop_cls()
        ran = []
        holder = {}

        def callback(tag):
            holder["event"].cancel()
            ran.append((tag, loop.now))

        holder["event"] = loop.call_later(1.0, callback, "x" * 3)
        loop.run()
        assert ran == [("xxx", 1.0)]


# -- pending fetches and DNS retries ------------------------------------------


def pending_fetch(on_complete):
    fetch = CallbackFetch()
    fetch.url, fetch.request_bytes, fetch.response_bytes = "https://a.example/x", 400, 5000
    fetch.protocol, fetch.on_complete = HttpProtocol.H2, on_complete
    return fetch


class TestPendingFetchIdentity:
    def test_equal_fields_are_two_fetches(self):
        done = [].append
        first, second = pending_fetch(done), pending_fetch(done)
        assert first != second
        inflight = [first, second]
        assert second in inflight
        inflight.remove(second)  # the one that completed
        assert len(inflight) == 1 and inflight[0] is first

    def test_pool_removes_the_fetch_that_completed(self):
        loop = HeapEventLoop()
        pool = ConnectionPool(loop, faults=FaultInjector(FaultProfile(), loop))
        server, path = make_edge(), make_path(loop)
        snapshots = []

        def on_complete(record):
            # Every fetch still listed as in flight has its deadline
            # pending; the one that just completed (deadline dropped)
            # is gone.
            ((pooled,),) = pool._lanes.values()
            snapshots.append([fetch.timer is not None for fetch in pooled.inflight])

        for _ in range(2):
            fetch_one(pool, server, path, HttpProtocol.H2, "https://a.example/x",
                      400, 5000, on_complete)
        loop.run()
        assert snapshots == [[True], []]


@pytest.fixture(scope="module")
def universe():
    return TopSitesGenerator(GeneratorConfig(n_sites=6)).generate(seed=11)


def test_dns_retries_leave_no_closure_cycles(universe):
    """A dropped faulted visit with DNS retries leaves no cell, function,
    request object (``_Request``, ``_PageLoad``),
    ``_PooledConnection`` or ``HarEntry`` for the cycle collector."""
    loop = CEventLoop() if CEventLoop is not None else HeapEventLoop()
    farm = ServerFarm(loop, universe.hosts, ProbeNetProfile(), rng=random.Random(3))
    farm.warm_caches(universe.pages)
    page = universe.pages[4]
    html_host = page.resources[0].host
    lost_host = sorted({r.host for r in page.resources} - {html_host})[0]
    profile = FaultProfile(
        events=(
            # Every lookup fails for a while, then a retry succeeds ...
            FaultEvent("dns_failure", start_ms=0.0, end_ms=250.0),
            # ... and one host never resolves: its entries fail.
            FaultEvent("dns_failure", hosts=(lost_host,)),
        ),
        retry=RetryPolicy(max_retries=3, backoff_base_ms=60.0),
    )
    browser = Browser(loop, farm, BrowserConfig(), rng=random.Random(4),
                      faults=FaultInjector(profile, loop))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        visit = browser.visit(page)
        assert len(visit.entries) == page.total_requests
        lost = [entry for entry in visit.entries if entry.host == lost_host]
        assert lost and all(entry.failed for entry in lost)
        assert not any(entry.failed for entry in visit.entries if entry.host == html_host)
        assert browser.dns.failures > 4
        del visit
        gc.collect()
        kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        leaked = {
            name: kinds[name]
            for name in (
                "cell", "function", _Request.__name__,
                _PageLoad.__name__, _PooledConnection.__name__, HarEntry.__name__,
            )
            if kinds[name]
        }
        assert leaked == {}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
