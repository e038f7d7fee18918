"""Structural properties of a page visit on the packet path.

Things a visit must not do, all deterministic:

* keep itself alive: once its result is dropped, a finished visit's
  :class:`ConnectionPool` and :class:`HarLog`, and a finished paired
  visit's probe, faults or not, are freed by reference counting alone,
  without the cyclic garbage collector (which is why a paired visit
  runs with the collector paused, and starts at most one pass);
* call dormant hooks or trampolines per packet: with tracing, strict
  checking and sampling off, nothing in ``repro.obs`` or
  ``repro.check`` runs, and packets go from the transport straight to
  ``Link.transmit`` and from the event loop straight to the receiver;
* create a closure or lambda per request, or make more than eight
  Python calls per request in ``repro.http`` and ``repro.browser``
  (or other than the pinned counts there, in ``repro.cdn`` and across
  all of ``repro``);
* seed a random generator for a connection that presents no session
  ticket;
* build more than one request object and one record per request: the
  browser's request is the pool's fetch from its DNS lookup to its HAR
  entry, and the pool fills the request's ``HarEntry`` and the browser
  files that same object;
* run the transport loop or the request exchange in Python when the C
  kernel is built: none of the methods of ``_PyTransportCore`` is
  called, and the only packets Python builds are the handshake flights
  and their replies;
* build packets other than the pinned count, or allocate one where the
  freelist has one to reuse, when the C kernel is built: every packet
  built goes onto a link once;
* run congestion control, RTT estimation or reassembly in Python per
  ACK or per data packet when the C kernel is built;
* run Python per packet on a faulted, relayed, lossy path when the C
  kernel is built: fault windows, relay hops and Bernoulli draws all
  stay in C.

The profiler cannot see calls made from C to C (a ``Link.transmit``
from the C transport core), so the packet counts come from the links'
own counters.
"""

import collections
import cProfile
import enum
import gc
import inspect
import os
import pstats
import random
import types
import weakref

import pytest

import repro
import repro.browser.browser as browser_module
import repro.browser
import repro.browser.har
import repro.cdn
import repro.cdn.classifier as classifier
import repro.check
import repro.dns.resolver
import repro.faults.inject
import repro.http
import repro.http.alt_svc
import repro.http.messages
import repro.http.pool
import repro.netsim.link
import repro.netsim.loss
import repro.netsim.path
import repro.netsim.proxy
import repro.obs
import repro.tls.session_cache
import repro.transport.base
from repro.browser import Browser, BrowserConfig
from repro.events import EventLoop
from repro.http import AltSvcCache, HarEntry
from repro.http.pool import ConnectionPool, Fetch, _PooledConnection
from repro.browser.browser import H3_ENABLED
from repro.measurement import ProbeNetProfile, ServerFarm
from repro.measurement.probe import Probe
from repro.measurement import CampaignPlan, default_vantage_points, execute
from repro.measurement.consecutive import ConsecutivePlan, run_walk
from repro.measurement.parallel import measure_paired_visit, measure_visit_outcome
from repro.events.loop import CEventLoop, _ckernel
from repro.faults import FaultInjector
from repro.netsim import (
    BernoulliLoss, NetemProfile, NetworkPath, NoLoss, Packet, PacketKind,
    SegmentedPath,
)
from repro.scenario import preset
from repro.transport import QuicConnection, TcpConnection
from repro.transport.base import BaseConnection, _PyTransportCore
from repro.transport.congestion import NewRenoController
from repro.transport.rtt import RttEstimator
from repro.web import GeneratorConfig, TopSitesGenerator
from repro.web.topsites import cached_universe


@pytest.fixture(scope="module")
def universe():
    return TopSitesGenerator(GeneratorConfig(n_sites=6)).generate(seed=11)


def make_browser(universe):
    loop = EventLoop()
    farm = ServerFarm(loop, universe.hosts, ProbeNetProfile(), rng=random.Random(3))
    farm.warm_caches(universe.pages)
    return Browser(loop, farm, BrowserConfig(), rng=random.Random(4))


def test_finished_visit_frees_itself_without_the_cycle_collector(
    universe, monkeypatch
):
    pools = []

    class TrackedPool(ConnectionPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(weakref.ref(self))

    monkeypatch.setattr(browser_module, "ConnectionPool", TrackedPool)
    browser = make_browser(universe)
    browser.visit(universe.pages[1])  # warm: tickets, DNS, first-use state
    gc.collect()
    gc.disable()
    try:
        visit = browser.visit(universe.pages[4])
        har = weakref.ref(visit.har)
        assert len(visit.entries) == universe.pages[4].total_requests
        assert har() is not None
        del visit
        assert har() is None
        assert len(pools) == 2 and all(ref() is None for ref in pools)
    finally:
        gc.enable()


def paired_visit_args(universe, faults=None, page_index=1):
    """``measure_paired_visit``'s arguments for one page of ``universe``."""
    config = preset("paper-default").with_faults(faults).campaign_config(seed=11)
    vantage = default_vantage_points()[0]
    return (universe, vantage, 0, 0, config, universe.pages[page_index], page_index)


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("faulted", [False, True], ids=["ok", "raises"])
def test_visit_pauses_the_cycle_collector_and_restores_the_callers_state(
    universe, monkeypatch, caller_enabled, faulted
):
    """A paired visit makes no cycles (below), so it runs with the
    collector off, from the probe's build to its close; afterwards the
    caller's setting is back, also when the paired visit raises under a
    fault profile (and becomes a failed outcome)."""
    seen = []
    measure_page = Probe.measure_page

    def spied(probe, page, mode, visits=2):
        seen.append(gc.isenabled())
        if faulted and mode == H3_ENABLED:
            raise RuntimeError("fault inside the paired visit")
        return measure_page(probe, page, mode, visits)

    monkeypatch.setattr(Probe, "measure_page", spied)
    args = paired_visit_args(universe, "reset-storm" if faulted else None)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        outcome = measure_visit_outcome(*args)
        assert seen == [False, False]
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert (outcome.status == "failed") is faulted


def test_failed_paired_visit_closes_its_probe(universe, monkeypatch):
    """A paired visit that raises under a fault profile becomes a failed
    outcome, and its probe's loop is closed all the same: nothing it
    had scheduled (packets in flight, armed deadlines) waits for the
    traceback that holds it to go."""
    probes = []
    measure_page = Probe.measure_page

    def spied(probe, page, mode, visits=2):
        probes.append(probe)
        if mode == H3_ENABLED:
            raise RuntimeError("fault inside the paired visit")
        return measure_page(probe, page, mode, visits)

    monkeypatch.setattr(Probe, "measure_page", spied)
    outcome = measure_visit_outcome(*paired_visit_args(universe, "reset-storm", 4))
    assert outcome.status == "failed"
    (probe,) = set(probes)
    assert len(probe.loop) == 0


def test_consecutive_walk_pauses_the_cycle_collector(universe, monkeypatch):
    seen = []
    visit_once = Probe.visit_once

    def spied(probe, page, mode):
        seen.append(gc.isenabled())
        return visit_once(probe, page, mode)

    monkeypatch.setattr(Probe, "visit_once", spied)
    assert gc.isenabled()
    run_walk(ConsecutivePlan(universe, pages=tuple(universe.pages[:3])), H3_ENABLED)
    assert seen == [False, False, False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "faults", [None, "udp-blocked", "dns-flaky", "reset-storm", "nat-rebind"]
)
def test_dropped_paired_visit_leaves_nothing_for_the_cycle_collector(
    universe, faults
):
    """Probe, browsers, farm, fault injector and both protocols' visits:
    everything a paired visit builds goes with reference counting."""
    args = paired_visit_args(universe, faults, page_index=4)
    measure_paired_visit(*args)  # warm-up: first-use state
    gc.collect()
    gc.disable()
    try:
        paired = measure_paired_visit(*args)
        assert paired.h2.entries and paired.h3.entries
        del paired
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_collector_starts_at_most_one_pass_per_paired_visit():
    """Paused across each paired visit, the collector runs (at most)
    once after it, rather than after each of its four page loads."""
    universe = cached_universe(GeneratorConfig(n_sites=16), 11)
    sim = preset("paper-default").campaign_config(seed=11).sim
    execute(CampaignPlan(universe=universe, sim=sim, pages=universe.pages[:4]))
    plan = CampaignPlan(universe=universe, sim=sim, pages=universe.pages[:16])
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = execute(plan)
    finally:
        gc.callbacks.remove(count)
    assert len(result.paired_visits) == 16 and not result.failures
    assert len(passes) <= 16


def test_dropped_campaign_leaves_nothing_for_the_cycle_collector(universe):
    """Every deadline is an event handle the transport core holds (C or
    Python), and a probe cancels what is still scheduled when it is
    done: a dropped campaign is freed by reference counting."""
    sim = preset("paper-default").campaign_config(seed=11).sim
    plan = CampaignPlan(universe=universe, sim=sim, pages=universe.pages[:3])
    execute(plan)  # warm-up: first-use state
    gc.collect()
    gc.disable()
    try:
        result = execute(plan)
        assert result.visits and not result.failures
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def sent_packets(browser):
    """Packets the farm's links (every segment's) have transmitted so far."""
    return sum(
        link.stats.sent_packets
        for path in browser.farm._paths.values()
        for link in (
            *getattr(path, "uplinks", [path.uplink]),
            *getattr(path, "downlinks", [path.downlink]),
        )
    )


def profiled_visit(browser, page):
    """Python calls per profiler key, and packets sent, over one visit."""
    before = sent_packets(browser)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        browser.visit(page)
    finally:
        profiler.disable()
    calls = {
        key: stat[1] for key, stat in pstats.Stats(profiler).stats.items()
    }
    return calls, sent_packets(browser) - before


def calls_to(calls, function):
    code = function.__code__
    return calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)


def test_dormant_visit_calls_no_hooks_or_trampolines(universe):
    calls, packets = profiled_visit(make_browser(universe), universe.pages[4])

    # The visit really went over the packet path.
    assert packets > 100
    dormant = tuple(
        os.path.dirname(package.__file__) + os.sep
        for package in (repro.obs, repro.check)
    )
    assert {key: n for key, n in calls.items() if key[0].startswith(dormant)} == {}
    assert calls_to(calls, NoLoss.should_drop) == 0
    netsim = (repro.netsim.link.__file__, repro.netsim.path.__file__)
    trampolines = ("_deliver", "send_to_server", "send_to_client")
    assert {
        key: n
        for key, n in calls.items()
        if key[0] in netsim and key[2] in trampolines
    } == {}


#: Python calls into ``repro.http`` and ``repro.browser`` over the
#: 96-request dormant visit below: four per request in the pool and on
#: the connection (``fetch``, ``issue``, ``on_first_byte``,
#: ``on_stream_complete``), three in the browser (the request's
#: ``__init__``, ``resolved`` and ``complete``), a route lookup per
#: host, and a few per connection and per visit.
HTTP_BROWSER_CALLS = 760
#: Python calls into ``repro.cdn`` over the same visit, the classifier
#: starting cold: ``classify_response`` for every entry (and its header
#: scan for each response it has not seen), the edge or origin
#: ``serve`` and the edge's tier lookup for every request, and a few
#: cache inserts and per-visit calls.
CDN_CALLS = 388
#: The same with the classifier's memos warm, as after the harness
#: ledger's warm-up: the header scans are gone.
CDN_CALLS_WARM = 274
#: Python calls into all of ``repro`` over the same visit, the
#: process-wide memos starting cold: the two counts above, plus the DNS
#: lookup per request (and the recursion cost per host), and per host
#: or per connection in ``repro.measurement`` (the farm),
#: ``repro.transport``, ``repro.netsim``, ``repro.web`` and
#: ``repro.tls``.  (1,601 while ``Packet`` was a dataclass everywhere:
#: its ``__post_init__`` ran in Python for each of the 26 handshake
#: packets, which the C type's constructor now builds.)
REPRO_CALLS = 1575


def named_functions(*owners):
    """Profiler keys of the functions defined directly on the classes
    ``owners``: no closure or lambda is among them."""
    keys = set()
    for owner in owners:
        for value in vars(owner).values():
            function = getattr(value, "fget", value)
            if inspect.isfunction(function):
                code = function.__code__
                keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


def calls_into(calls, *packages):
    """Profiler counts of the functions defined in ``packages``."""
    layers = tuple(
        os.path.dirname(package.__file__) + os.sep for package in packages
    )
    return {key: n for key, n in calls.items() if key[0].startswith(layers)}


def cold_profiled_visit(universe):
    """``profiled_visit`` of the dormant visit, with the process-wide
    memos (the classifier's verdicts, the resolver's recursion costs)
    cleared first: its counts do not depend on what ran before in the
    process."""
    classifier._classify_sent.cache_clear()
    classifier._classify_default.cache_clear()
    repro.dns.resolver._recursion_ms.cache_clear()
    page = universe.pages[4]
    calls, packets = profiled_visit(make_browser(universe), page)
    assert packets > 100
    assert page.total_requests == 96
    return calls


def test_dormant_visit_makes_eight_calls_per_request(universe):
    calls = cold_profiled_visit(universe)
    ours = calls_into(calls, repro.http, repro.browser)
    assert sum(ours.values()) == HTTP_BROWSER_CALLS
    assert sum(ours.values()) / 96 <= 8
    # Whatever runs per request is a named method or function.
    per_request = {key for key, n in ours.items() if n >= 96}
    assert per_request <= named_functions(
        browser_module._Request, browser_module._PageLoad, browser_module.Browser,
        Fetch, _PooledConnection, ConnectionPool, AltSvcCache,
    )
    assert len(per_request) == 7


def test_dormant_visit_makes_the_pinned_cdn_calls(universe):
    assert sum(calls_into(cold_profiled_visit(universe), repro.cdn).values()) == (
        CDN_CALLS
    )
    # Warm, the classifier scans no headers it has seen before.
    calls, _ = profiled_visit(make_browser(universe), universe.pages[4])
    assert sum(calls_into(calls, repro.cdn).values()) == CDN_CALLS_WARM


@pytest.mark.skipif(
    EventLoop is not CEventLoop,
    reason="pinned for the C scheduler and transport core, which run no Python per event",
)
def test_dormant_visit_makes_the_pinned_calls_across_repro(universe):
    """Work moved out of ``repro.http`` and ``repro.browser`` into
    another layer (the farm, DNS, the web model) shows here."""
    calls = cold_profiled_visit(universe)
    assert sum(calls_into(calls, repro).values()) == REPRO_CALLS


def test_no_random_generator_for_a_connection_without_a_ticket(
    universe, monkeypatch
):
    """The pool draws one seed per connection from its own stream, but
    seeds a generator only to test a presented session ticket."""
    seeded = []

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            seeded.append(seed)
            super().__init__(seed)

    lookups = []
    lookup = repro.tls.session_cache.SessionTicketCache.lookup

    def spied_lookup(cache, host, now_ms):
        ticket = lookup(cache, host, now_ms)
        lookups.append(ticket is not None)
        return ticket

    monkeypatch.setattr(
        repro.tls.session_cache.SessionTicketCache, "lookup", spied_lookup
    )
    browser = make_browser(universe)
    monkeypatch.setattr(
        repro.http.pool, "random", types.SimpleNamespace(Random=CountingRandom)
    )
    first = browser.visit(universe.pages[4])
    assert first.pool_stats.connections_created > 0
    assert seeded == [] and not any(lookups)
    # The next visit presents the tickets the first one stored.
    lookups.clear()
    second = browser.visit(universe.pages[4])
    assert second.pool_stats.connections_created == len(lookups)
    assert len(seeded) == sum(lookups) > 0


def test_each_request_is_one_object(universe, monkeypatch):
    """Per request, the visit builds the browser's request, which is
    also the pool's fetch, and the ``HarEntry`` with its timings:
    nothing else from ``repro.http`` or ``repro.browser``."""
    built = collections.Counter()

    def counting(cls, init):
        def __init__(self, *args, **kwargs):
            if type(self) is cls:
                built[cls.__name__] += 1
            init(self, *args, **kwargs)

        return __init__

    for module in (
        repro.http.pool, repro.http.messages, repro.http.alt_svc,
        browser_module, repro.browser.har,
    ):
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and not issubclass(cls, enum.Enum)
                and not getattr(cls, "_is_protocol", False)
            ):
                monkeypatch.setattr(cls, "__init__", counting(cls, cls.__init__))
    page = universe.pages[4]
    visit = make_browser(universe).visit(page)
    assert len(visit.entries) == page.total_requests == 96
    assert issubclass(browser_module._Request, Fetch)
    per_request = {name: n for name, n in built.items() if n >= 96}
    assert per_request == {"_Request": 96, "HarEntry": 96, "EntryTiming": 96}


def test_each_request_builds_one_record(universe, monkeypatch):
    built, handed = [], []
    init = HarEntry.__init__
    complete = browser_module._Request.complete

    def counted_init(entry, *args, **kwargs):
        built.append(entry)
        init(entry, *args, **kwargs)

    def spied_complete(request, entry):
        handed.append(entry)
        complete(request, entry)

    monkeypatch.setattr(HarEntry, "__init__", counted_init)
    monkeypatch.setattr(browser_module._Request, "complete", spied_complete)
    page = universe.pages[4]
    visit = make_browser(universe).visit(page)
    assert len(built) == page.total_requests
    assert [id(entry) for entry in visit.entries] == [id(entry) for entry in handed]
    assert {id(entry) for entry in built} == {id(entry) for entry in handed}


@pytest.mark.skipif(_ckernel is None, reason="C kernel not built on this host")
def test_dormant_visit_runs_the_transport_loop_in_c(universe, monkeypatch):
    python_built_kinds = []

    def counted_packet(*args, **kwargs):
        packet = Packet(*args, **kwargs)
        python_built_kinds.append(packet.kind)
        return packet

    monkeypatch.setattr(repro.transport.base, "Packet", counted_packet)
    browser = make_browser(universe)
    calls, packets = profiled_visit(browser, universe.pages[4])
    assert packets > 100
    moved = [
        name for name, value in vars(_PyTransportCore).items()
        if callable(value) and not name.startswith("__")
        and name not in ("_init_deadlines", "_stop_deadlines")
    ]
    # The send/ack/receive loop (10), the TCP and QUIC reassembly (4),
    # the handshake deadline (2) and the request exchange (6).
    assert len(moved) == 22
    assert {name: calls_to(calls, getattr(_PyTransportCore, name)) for name in moved} == {
        name: 0 for name in moved
    }
    # Python builds only the handshake flights and their replies; every
    # request, data and ACK packet comes from C.
    python_built = sum(
        calls_to(calls, getattr(BaseConnection, name))
        for name in ("_send_handshake_flight", "_server_on_handshake")
    )
    assert python_built > 0
    assert len(python_built_kinds) == python_built
    assert set(python_built_kinds) == {PacketKind.HANDSHAKE}


#: Packets the 96-request dormant visit builds (its handshake, request,
#: data and ACK packets), and how many of them are freed packets taken
#: from the freelist, which starts empty: about one in five is a fresh
#: allocation, the rest reuse what earlier ACKs and deliveries freed.
PACKETS_BUILT = 1725
PACKETS_REUSED = 1412


@pytest.mark.skipif(_ckernel is None, reason="C kernel not built on this host")
def test_dormant_visit_packet_life_cycle(universe):
    browser = make_browser(universe)
    before = sent_packets(browser)
    gc.collect()
    gc.disable()
    try:
        _ckernel._packet_stats(reset=True)
        browser.visit(universe.pages[4])
        built, reused = _ckernel._packet_stats(reset=True)
    finally:
        gc.enable()
    assert (built, reused) == (PACKETS_BUILT, PACKETS_REUSED)
    assert sent_packets(browser) - before == built


#: Events the 96-request dormant visit schedules and dispatches, on
#: either scheduler and either transport core.  A deadline re-armed while
#: pending counts as one schedule, whether its event is re-keyed in place
#: (the C scheduler) or cancelled and scheduled anew.
EVENTS_SCHEDULED = 2982
EVENTS_DISPATCHED = 1855


def test_dormant_visit_schedules_and_dispatches_the_pinned_events(universe):
    browser = make_browser(universe)
    loop = browser.loop
    scheduled, dispatched = loop.scheduled_events, loop.processed_events
    browser.visit(universe.pages[4])
    assert (
        loop.scheduled_events - scheduled, loop.processed_events - dispatched
    ) == (EVENTS_SCHEDULED, EVENTS_DISPATCHED)


def started_transfer(conn_cls, response_bytes=60_000):
    """A connection whose response has delivered its first bytes."""
    loop = EventLoop()
    path = NetworkPath(loop, NetemProfile(delay_ms=10.0, rate_mbps=20.0))
    conn = conn_cls(loop, path)
    established = []
    conn.connect(established.append)
    loop.run_until(lambda: bool(established))
    stream = conn.request(400, response_bytes)
    loop.run_until(lambda: stream.received > 0)
    return loop, conn, stream


@pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])
def test_deliver_override_set_mid_transfer_receives_the_next_chunk(conn_cls):
    """Whether ``_deliver_chunk`` is the core's own is cached per
    connection, yet an instance attribute set after the first data
    packet takes the very next chunk, and deleting it hands the rest
    back to the core."""
    loop, conn, stream = started_transfer(conn_cls)
    first = stream.received
    offsets = []
    deliver = conn._deliver_chunk

    def recorded(chunk):
        offsets.append(chunk.offset)
        deliver(chunk)

    conn._deliver_chunk = recorded
    loop.run_until(lambda: stream.received >= 3 * first)
    assert offsets and offsets[0] == first
    del conn._deliver_chunk
    seen = len(offsets)
    loop.run_until(lambda: stream.complete)
    assert len(offsets) == seen
    assert stream.received == 60_000


@pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])
def test_migrated_connection_sends_on_its_new_path(conn_cls):
    """The path's send callables are cached per connection; assigning
    the connection another path moves every later packet onto it."""
    loop, conn, stream = started_transfer(conn_cls, response_bytes=200_000)
    old = conn.path
    new = NetworkPath(loop, NetemProfile(delay_ms=10.0, rate_mbps=20.0))
    conn.path = new
    conn.on_path_migration()
    old_sent = (old.uplink.stats.sent_packets, old.downlink.stats.sent_packets)
    loop.run_until(lambda: stream.complete)
    assert (old.uplink.stats.sent_packets, old.downlink.stats.sent_packets) == old_sent
    assert new.uplink.stats.sent_packets > 0
    assert new.downlink.stats.sent_packets > 0


@pytest.mark.skipif(_ckernel is None, reason="C kernel not built on this host")
def test_dormant_visit_runs_cc_rtt_and_reassembly_in_c(universe):
    browser = make_browser(universe)
    before = sent_packets(browser)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        browser.visit(universe.pages[4])
    finally:
        profiler.disable()
    assert sent_packets(browser) - before > 100
    stats = pstats.Stats(profiler).stats
    calls = {key: stat[1] for key, stat in stats.items()}
    per_packet = (
        NewRenoController.on_ack,
        NewRenoController.in_slow_start.fget,
        NewRenoController.cwnd_bytes.fget,
        _PyTransportCore._tcp_on_data_packet_received,
        _PyTransportCore._tcp_release_packet,
        _PyTransportCore._quic_on_data_packet_received,
        _PyTransportCore._quic_receive_stream_chunk,
    )
    assert {f.__qualname__: calls_to(calls, f) for f in per_packet} == {
        f.__qualname__: 0 for f in per_packet
    }
    # The estimator still takes the handshake samples from Python; every
    # request-ACK and data-ACK sample is taken in C.
    code = RttEstimator.on_sample.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    assert calls.get(key, 0) > 0
    callers = {caller[2] for caller in stats[key][4]}
    assert callers == {"_client_on_handshake_reply"}


@pytest.mark.skipif(_ckernel is None, reason="C kernel not built on this host")
def test_faulted_relayed_lossy_visit_runs_no_python_per_packet(universe):
    """The ``lossy-migration`` benchmark's set-up: 1% Bernoulli loss, a
    MASQUE relay and a NAT-rebind window."""
    sim = (
        preset("lossy").with_proxy("masque-relay").with_faults("nat-rebind")
        .campaign_config(seed=11).sim
    )
    probe = Probe(
        "lean", universe,
        net_profile=ProbeNetProfile(loss_rate=sim.loss_rate, rate_mbps=sim.rate_mbps),
        seed=5,
        transport_config=sim.transport_config,
        fault_profile=sim.fault_profile,
        proxy=sim.proxy,
    )
    browser = probe.browsers[H3_ENABLED]
    calls, packets = profiled_visit(browser, universe.pages[4])
    assert packets > 100
    per_packet = {
        repro.faults.inject.__file__: (
            "send_to_server", "send_to_client", "send_unless_dropped",
            "packet_dropped", "blackout", "migration_blackout", "udp_blackholed",
        ),
        repro.netsim.proxy.__file__: ("_forward", "send_to_server", "send_to_client"),
    }
    assert {
        key: n for key, n in calls.items() if key[2] in per_packet.get(key[0], ())
    } == {}
    assert calls_to(calls, BernoulliLoss.should_drop) == 0
    # ``_active`` and ``_rel_now`` still answer the per-request and
    # per-connection queries, and nothing else.
    injector = FaultInjector
    queries = sum(
        calls_to(calls, getattr(injector, name))
        for name in ("edge_outage", "dns_failure", "zero_rtt_rejected")
    )
    assert queries > 0
    assert calls_to(calls, injector._active) == queries
    assert calls_to(calls, injector._rel_now) == queries + sum(
        calls_to(calls, getattr(injector, name))
        for name in ("migration_at", "connection_reset_at")
    )
    # The visit really went over relayed, lossy, faulted paths.
    paths = list(browser.farm._paths.values())
    assert paths and all(isinstance(path, SegmentedPath) for path in paths)
    links = [link for path in paths for link in path.uplinks + path.downlinks]
    assert any(type(link.loss) is BernoulliLoss for link in links)
    assert sim.fault_profile.events
