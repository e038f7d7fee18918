"""Differential tests of the two link cores.

``Link`` takes its per-packet methods from ``LinkCore`` (C, in the
event kernel module) when the kernel is built and from
``_PyLinkCore`` otherwise.  Here both cores run the same seeded
scripts, on both schedulers, and everything observable must match
exactly: the returns of ``transmit``/``reserve_transmit``, every
delivery's time and packet, the order and arguments of every hook call,
the RNG state, the counters (floats by ``repr``) and the FIFO.
"""

import dataclasses
import gc
import random
import weakref

import pytest

from repro.browser import Browser, BrowserConfig
from repro.events.loop import CEventLoop, HeapEventLoop, _ckernel
from repro.measurement import ProbeNetProfile, ServerFarm
from repro.netsim import (
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    Packet,
    PacketKind,
    StreamChunk,
)
from repro.netsim.link import Link, _PyLinkCore
from repro.web import GeneratorConfig, TopSitesGenerator

pytestmark = pytest.mark.skipif(
    _ckernel is None, reason="C kernel not built on this host"
)

LOOPS = [
    pytest.param(HeapEventLoop, id="heap"),
    pytest.param(CEventLoop, id="c"),
]


def with_core(core):
    """``Link`` with its own methods over ``core``."""
    namespace = {
        name: value
        for name, value in vars(Link).items()
        if name not in ("__dict__", "__weakref__")
    }
    return type(f"Link_{core.__name__}", (core,), namespace)


PyLink = with_core(_PyLinkCore)
CLink = with_core(_ckernel.LinkCore) if _ckernel is not None else None


def logged(loss_cls, log):
    """``loss_cls`` recording every verdict in ``log``."""

    class Logged(loss_cls):
        def should_drop(self, rng):
            verdict = super().should_drop(rng)
            log.append(("loss", verdict))
            return verdict

    return Logged


class LoggingSampler:
    def __init__(self, log):
        self.log = log

    def on_transmit(self, now, tx_done, size_bytes):
        self.log.append(("sample", repr(now), repr(tx_done), size_bytes))


def packets(n, seed=5):
    draw = random.Random(seed)
    return [
        Packet(
            PacketKind.DATA,
            seq=i,
            chunks=(StreamChunk(1, i * 1500, draw.randrange(1, 1400)),),
        )
        for i in range(n)
    ]


def stats_row(link, read):
    return repr(dataclasses.astuple(read(link)))


def run_script(
    link_cls,
    loop_cls,
    pkts,
    *,
    loss=NoLoss,
    loss_args=(),
    jitter_ms=0.0,
    rate_mbps=20.0,
    drop_filter=False,
    sampler=False,
    step_ms=0.25,
):
    """Drive one link through a seeded script; return what it observed."""
    log = []
    loop = loop_cls()
    loss_model = loss(*loss_args) if loss is NoLoss else logged(loss, log)(*loss_args)
    link = link_cls(
        loop,
        delay_ms=5.0,
        rate_mbps=rate_mbps,
        loss=loss_model,
        jitter_ms=jitter_ms,
        rng=random.Random(21),
    )
    if drop_filter:

        def drop(packet):
            verdict = packet.seq % 5 == 2
            log.append(("filter", packet.seq, verdict))
            return verdict

        link.drop_filter = drop
    if sampler:
        link.sampler = LoggingSampler(log)

    def on_deliver(packet):
        log.append(("deliver", repr(loop.now), packet.uid))

    script = random.Random(8)

    def act(packet):
        op = script.random()
        # ``_stats`` right after each call: both settle what is due
        # before they count the new packet.
        if op < 0.75:
            sent = link.transmit(packet, on_deliver)
            log.append(("transmit", sent, stats_row(link, lambda lk: lk._stats)))
        elif op < 0.85:
            at = repr(link.reserve_transmit(packet.size_bytes, loop.now))
            log.append(("reserve", at, stats_row(link, lambda lk: lk._stats)))
        elif op < 0.95:
            log.append(("stats", stats_row(link, lambda lk: lk.stats)))
        else:
            link.settle(loop.now + 2.0)
            log.append(("settled", stats_row(link, lambda lk: lk._stats)))

    # Two packets per step, and steps land on delivery times (delay and
    # step are exact binary fractions): same-instant ties abound and are
    # ordered by seq.  The script ends on a reservation that outlives
    # the loop.
    for i, packet in enumerate(pkts):
        loop.call_at((i // 2) * step_ms, act, packet)
    end = (len(pkts) // 2) * step_ms
    loop.call_at(end, lambda: log.append(
        ("reserve", repr(link.reserve_transmit(1500, loop.now)))
    ))
    loop.run()
    log.append(("pending", list(link._pending)))
    log.append(("tx", repr(link._tx_free_at), repr(link._last_delivery_at)))
    log.append(("stats", stats_row(link, lambda lk: lk.stats)))
    link.settle(float("inf"))
    log.append(("pending", list(link._pending)))
    log.append(("final", stats_row(link, lambda lk: lk._stats)))
    log.append(("rng", link.rng.getstate()))
    log.append(("events", loop.scheduled_events, loop.processed_events))
    return log


SCENARIOS = {
    "no-loss": {},
    "bernoulli": dict(loss=BernoulliLoss, loss_args=(0.1,)),
    "gilbert-elliott": dict(
        loss=GilbertElliottLoss, loss_args=(0.05, 0.3, 0.0, 0.6)
    ),
    "jitter": dict(loss=BernoulliLoss, loss_args=(0.05,), jitter_ms=4.0),
    "drop-filter": dict(loss=BernoulliLoss, loss_args=(0.3,), drop_filter=True),
    "sampler": dict(sampler=True, jitter_ms=1.5),
    "infinite-rate": dict(rate_mbps=None),
    "saturated": dict(rate_mbps=0.5, step_ms=0.125),
}


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_c_core_matches_python_core(scenario, loop_cls):
    pkts = packets(400)
    kwargs = SCENARIOS[scenario]
    expected = run_script(PyLink, loop_cls, pkts, **kwargs)
    got = run_script(CLink, loop_cls, pkts, **kwargs)
    assert got == expected
    kinds = {entry[0] for entry in got}
    assert {"transmit", "reserve", "stats", "settled", "deliver"} <= kinds


def test_scripts_reach_the_cases_they_name():
    pkts = packets(400)
    log = run_script(CLink, CEventLoop, pkts, **SCENARIOS["drop-filter"])
    # A packet the loss draw and the filter both drop: the filter still
    # ran after the draw.
    both = [
        (a, b) for a, b in zip(log, log[1:])
        if a == ("loss", True) and b[0] == "filter" and b[2]
    ]
    assert both
    assert any(entry[:2] == ("transmit", False) for entry in log)
    log = run_script(CLink, CEventLoop, pkts, **SCENARIOS["infinite-rate"])
    times = [entry[1] for entry in log if entry[0] == "deliver"]
    assert len(times) != len(set(times)), "no same-instant deliveries"
    log = run_script(CLink, CEventLoop, pkts, **SCENARIOS["saturated"])
    pending = next(entry[1] for entry in log if entry[0] == "pending")
    assert pending, "nothing left in flight when the loop drained"


@pytest.mark.parametrize("loop_cls", LOOPS)
def test_parameters_read_back_as_assigned(loop_cls):
    for cls in (PyLink, CLink):
        link = cls(loop_cls(), delay_ms=2, rate_mbps=None, jitter_ms=0)
        assert (link.delay_ms, link.rate_mbps, link.jitter_ms) == (2, None, 0)
        assert type(link.delay_ms) is int
        assert repr(link) == "<Link link 2ms inf NoLoss()>"
        assert link.drop_filter is None and link.sampler is None
        assert link.fast_path_eligible
        assert link.stats is link.stats is link._stats


@pytest.mark.parametrize("cls", [PyLink, CLink], ids=["python", "c"])
def test_dropped_link_dies_by_reference_counting(cls):
    loop = CEventLoop()
    link = cls(
        loop, delay_ms=3.0, rate_mbps=10.0, loss=BernoulliLoss(0.2),
        jitter_ms=1.0, rng=random.Random(2),
    )
    link.drop_filter = lambda packet: packet.seq == 3
    link.sampler = LoggingSampler([])
    for packet in packets(20):
        link.transmit(packet, lambda packet: None)
    link.reserve_transmit(1200, 0.0)
    assert len(loop) > 0 and link._pending
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(link)
        del link
        assert ref() is None
    finally:
        gc.enable()
    loop.run()  # the queued deliveries never needed the link


def test_visit_scheduled_events_equal_on_heap_and_c_loops():
    universe = TopSitesGenerator(GeneratorConfig(n_sites=6)).generate(seed=11)
    counts = []
    for loop_cls in (HeapEventLoop, CEventLoop):
        loop = loop_cls()
        farm = ServerFarm(
            loop, universe.hosts, ProbeNetProfile(), rng=random.Random(3)
        )
        farm.warm_caches(universe.pages)
        browser = Browser(loop, farm, BrowserConfig(), rng=random.Random(4))
        browser.visit(universe.pages[4])
        counts.append((loop.scheduled_events, loop.processed_events))
    assert counts[0] == counts[1]
    assert counts[0][0] > counts[0][1] > 0
