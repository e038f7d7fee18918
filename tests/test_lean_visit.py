"""Structural properties of a page visit on the packet path.

Two things a visit must not do, both deterministic:

* keep itself alive: once its result is dropped, a finished visit's
  :class:`ConnectionPool` and :class:`HarLog` are freed by reference
  counting alone, without the cyclic garbage collector (which is why a
  visit may run with the collector paused);
* call dormant hooks or trampolines per packet: with tracing, strict
  checking and sampling off, nothing in ``repro.obs`` or
  ``repro.check`` runs, and packets go from the transport straight to
  ``Link.transmit`` and from the event loop straight to the receiver;
* create a closure or lambda per request, or make more than a dozen
  or so Python calls per request in ``repro.http`` and
  ``repro.browser`` (or other than the pinned count there and in
  ``repro.cdn``);
* build more than one request object and one record per request: the
  browser's request is the pool's fetch from its DNS lookup to its HAR
  entry, and the pool fills the request's ``HarEntry`` and the browser
  files that same object;
* run the transport loop or the request exchange in Python when the C
  kernel is built: none of the methods of ``_PyTransportCore`` is
  called, and the only packets built through ``Packet.__init__`` are
  the handshake flights and their replies;
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
import weakref

import pytest

import repro.browser.browser as browser_module
import repro.browser
import repro.browser.har
import repro.cdn
import repro.cdn.classifier as classifier
import repro.check
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
from repro.browser import Browser, BrowserConfig
from repro.events import EventLoop
from repro.http import AltSvcCache, HarEntry
from repro.http.pool import ConnectionPool, Fetch, _PooledConnection
from repro.browser.browser import H3_ENABLED
from repro.measurement import ProbeNetProfile, ServerFarm
from repro.measurement.probe import Probe
from repro.measurement import CampaignPlan, execute
from repro.events.loop import _ckernel
from repro.faults import FaultInjector
from repro.netsim import BernoulliLoss, NoLoss, Packet, SegmentedPath
from repro.scenario import preset
from repro.transport.base import BaseConnection, _PyTransportCore
from repro.transport.congestion import NewRenoController
from repro.transport.rtt import RttEstimator
from repro.web import GeneratorConfig, TopSitesGenerator


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


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("faulted", [False, True], ids=["ok", "raises"])
def test_visit_pauses_the_cycle_collector_and_restores_the_callers_state(
    universe, caller_enabled, faulted
):
    """A visit makes no cycles (above), so it runs with the collector off;
    afterwards the caller's setting is back, also when the visit raises."""
    browser = make_browser(universe)
    seen = []

    def probe():
        seen.append(gc.isenabled())
        if faulted:
            raise RuntimeError("fault inside the visit")

    was_enabled = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        browser.loop.call_later(0.0, probe)
        if faulted:
            with pytest.raises(RuntimeError, match="fault inside the visit"):
                browser.visit(universe.pages[1])
        else:
            browser.visit(universe.pages[1])
        assert seen == [False]
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


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
#: 96-request dormant visit below: six per request in the pool and on
#: the connection, five in the browser, ``AltSvcCache.h3_broken`` for
#: H3-capable hosts, and a few per connection and per visit.
HTTP_BROWSER_CALLS = 1150
#: Python calls into ``repro.cdn`` over the same visit, the classifier
#: starting cold: ``classify_response`` for every entry (and its header
#: scan for each response it has not seen), the edge or origin
#: ``serve`` and the edge's tier lookup for every request, and a few
#: cache inserts and per-visit calls.
CDN_CALLS = 388


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


def test_dormant_visit_makes_a_dozen_calls_per_request(universe):
    page = universe.pages[4]
    calls, packets = profiled_visit(make_browser(universe), page)
    assert packets > 100
    ours = calls_into(calls, repro.http, repro.browser)
    assert page.total_requests == 96
    assert sum(ours.values()) == HTTP_BROWSER_CALLS
    assert sum(ours.values()) / page.total_requests <= 14
    # Whatever runs per request is a named method or function.
    per_request = {key for key, n in ours.items() if n >= page.total_requests}
    assert per_request <= named_functions(
        browser_module._Request, browser_module._PageLoad, browser_module.Browser,
        Fetch, _PooledConnection, ConnectionPool, AltSvcCache,
    )
    assert len(per_request) == 11


def test_dormant_visit_makes_the_pinned_cdn_calls(universe):
    # The classifier memoises its verdicts across visits: start it cold.
    classifier._classify_sent.cache_clear()
    classifier._classify_default.cache_clear()
    page = universe.pages[4]
    calls, packets = profiled_visit(make_browser(universe), page)
    assert packets > 100
    assert page.total_requests == 96
    assert sum(calls_into(calls, repro.cdn).values()) == CDN_CALLS


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
def test_dormant_visit_runs_the_transport_loop_in_c(universe):
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
    assert calls_to(calls, Packet.__post_init__) == python_built


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
