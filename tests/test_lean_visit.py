"""Structural properties of a page visit on the packet path.

Two things a visit must not do, both deterministic:

* keep itself alive: once its result is dropped, a finished visit's
  :class:`ConnectionPool` and :class:`HarLog` are freed by reference
  counting alone, without the cyclic garbage collector;
* call dormant hooks or trampolines per packet: with tracing, strict
  checking and sampling off, nothing in ``repro.obs`` or
  ``repro.check`` runs, and packets go from the transport straight to
  ``Link.transmit`` and from the event loop straight to the receiver.
"""

import cProfile
import gc
import os
import pstats
import random
import weakref

import pytest

import repro.browser.browser as browser_module
import repro.check
import repro.netsim.link
import repro.netsim.path
import repro.obs
from repro.browser import Browser, BrowserConfig
from repro.events import EventLoop
from repro.http.pool import ConnectionPool
from repro.measurement import ProbeNetProfile, ServerFarm
from repro.netsim import Link, NoLoss
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


def test_dormant_visit_calls_no_hooks_or_trampolines(universe):
    browser = make_browser(universe)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        browser.visit(universe.pages[4])
    finally:
        profiler.disable()
    calls = {
        key: stat[1] for key, stat in pstats.Stats(profiler).stats.items()
    }

    def calls_to(code):
        return calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

    def profile_key(function):
        # Python functions are keyed by their code object; C methods
        # (the C kernel's LinkCore) by the descriptor repr.
        code = getattr(function, "__code__", None)
        if code is not None:
            return (code.co_filename, code.co_firstlineno, code.co_name)
        return ("~", 0, repr(function))

    # The visit really went over the packet path.
    assert calls.get(profile_key(Link.transmit), 0) > 100
    dormant = tuple(
        os.path.dirname(package.__file__) + os.sep
        for package in (repro.obs, repro.check)
    )
    assert {key: n for key, n in calls.items() if key[0].startswith(dormant)} == {}
    assert calls_to(NoLoss.should_drop.__code__) == 0
    netsim = (repro.netsim.link.__file__, repro.netsim.path.__file__)
    trampolines = ("_deliver", "send_to_server", "send_to_client")
    assert {
        key: n
        for key, n in calls.items()
        if key[0] in netsim and key[2] in trampolines
    } == {}
