"""A unidirectional link with delay, rate, FIFO queueing, and loss.

The link is the only place in the simulator where packets experience
time: serialization at the bottleneck rate, a fixed one-way propagation
delay plus optional jitter, and stochastic drops.  Endpoints hand the
link a packet and a delivery callback; the link either schedules the
callback or silently drops the packet (recording it in the stats).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.events import EventLoop
from repro.events.loop import _ckernel
from repro.netsim.loss import BernoulliLoss, LossModel, NoLoss
from repro.netsim.packet import Packet


@dataclass
class LinkStats:
    """Counters a link maintains for diagnostics and the ethics section.

    The paper reports average probe traffic (126.7 Kbps); these counters
    let the measurement harness compute the analogous figure.

    ``sent_*``, ``dropped_packets`` and ``busy_time_ms`` count at
    transmit time.  ``delivered_*`` count a delivery once the clock has
    reached its delivery time: :attr:`Link.stats` settles them on every
    read, so a read at time *t* includes a delivery due at *t* even if
    its callback has not run yet, and never one due after *t*.
    """

    sent_packets: int = 0
    dropped_packets: int = 0
    delivered_packets: int = 0
    sent_bytes: int = 0
    delivered_bytes: int = 0
    busy_time_ms: float = field(default=0.0)

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of packets dropped so far."""
        if self.sent_packets == 0:
            return 0.0
        return self.dropped_packets / self.sent_packets


class _PyLinkCore:
    """The per-packet core of :class:`Link`, in pure Python.

    :meth:`transmit`, :meth:`reserve_transmit` and :meth:`settle`, over
    the state :class:`Link` sets up.  ``LinkCore`` in
    ``repro/events/_ckernel.c`` is the same three methods in C — the
    same float expressions in the same order, the same hooks called in
    the same order — with the delivery FIFO and the counters held in C;
    the module's ``_relay_later`` is :meth:`_relay_later`.
    This class runs when the C kernel is not built (or
    ``REPRO_NO_CKERNEL=1`` is set), and it is the oracle the
    differential tests compare the C core against.
    """

    def reserve_transmit(self, size_bytes: int, now: float) -> float:
        """Account one guaranteed delivery analytically; returns its time.

        Performs exactly the queueing/serialization/propagation
        arithmetic of :meth:`transmit` — including advancing the shared
        transmitter and FIFO-ordering state, so reserved and normally
        transmitted packets queue behind each other consistently — but
        schedules no event.  Only valid while :attr:`fast_path_eligible`
        holds (the packet cannot be dropped and has no jitter draw, so
        skipping the loss/jitter code changes nothing, not even RNG
        state).

        The delivery is *accounted* when the clock reaches its computed
        time, not at reservation: delivered stats are settled lazily via
        :meth:`settle`, so mid-visit readers (link samplers, ethics
        accounting, progress heartbeats) never see in-flight bytes as
        already delivered.
        """
        pending = self._pending
        if pending and pending[0][0] <= now:
            self.settle(now)
        stats = self._stats
        stats.sent_packets += 1
        stats.sent_bytes += size_bytes
        start = now if now > self._tx_free_at else self._tx_free_at
        if self.rate_mbps is None:
            tx_done = start
        else:
            tx_done = start + (size_bytes * 8) / (self.rate_mbps * 1000.0)
            stats.busy_time_ms += tx_done - start
        self._tx_free_at = tx_done
        deliver_at = tx_done + self.delay_ms
        if deliver_at < self._last_delivery_at:
            deliver_at = self._last_delivery_at
        self._last_delivery_at = deliver_at
        pending.append((deliver_at, size_bytes))
        return deliver_at

    def settle(self, now: float) -> None:
        """Fold deliveries due by ``now`` into the stats.

        Transmitted and reserved deliveries are queued in one FIFO in
        nondecreasing delivery order, so a single front-of-queue sweep
        settles everything due.  The analytic walk settles both links
        when it finishes (at its final virtual time), which keeps
        end-of-visit totals identical to the packet path's.
        """
        pending = self._pending
        stats = self._stats
        while pending and pending[0][0] <= now:
            _, size_bytes = pending.popleft()
            stats.delivered_packets += 1
            stats.delivered_bytes += size_bytes

    def transmit(self, packet: Packet, on_deliver: Callable[[Packet], None]) -> bool:
        """Send ``packet``; returns ``False`` if it was dropped.

        The delivery callback runs on the event loop after queueing +
        serialization + propagation (+ jitter).  Loss is applied up
        front: a dropped packet still occupies the transmitter (it is
        lost *after* being serialized, as on a real path).

        With a :attr:`relay` target set, the delivery event calls
        ``relay(packet, on_deliver)`` instead of ``on_deliver(packet)``
        (after :attr:`relay_delay_ms` more, when positive): the packet
        enters the next hop, which delivers it in the end.
        """
        now = self.loop.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self.settle(now)
        size = packet.size_bytes
        stats = self._stats
        stats.sent_packets += 1
        stats.sent_bytes += size

        # The compares here and below keep ``max(a, b)``'s tie rule
        # (``b`` only when ``b > a``); the serialization delay is the
        # float expression :meth:`reserve_transmit` uses, so reserved
        # and transmitted packets queue identically.
        tx_free_at = self._tx_free_at
        start = tx_free_at if tx_free_at > now else now
        rate = self.rate_mbps
        if rate is None:
            tx_done = start
        else:
            tx_done = start + (size * 8) / (rate * 1000.0)
            stats.busy_time_ms += tx_done - start
        self._tx_free_at = tx_done
        if self.sampler is not None:
            self.sampler.on_transmit(now, tx_done, size)

        # The stochastic loss draw happens unconditionally, *before* the
        # deterministic drop filter is consulted: a filter-dropped packet
        # must still consume its loss draw, or the loss/jitter RNG stream
        # diverges from an unfiltered run for the rest of the visit.
        # ``NoLoss`` draws nothing, so skipping its call leaves the RNG
        # stream as it was.
        loss = self.loss
        loss_dropped = type(loss) is not NoLoss and loss.should_drop(self.rng)
        drop_filter = self.drop_filter
        filter_dropped = drop_filter is not None and drop_filter(packet)
        if loss_dropped or filter_dropped:
            stats.dropped_packets += 1
            return False

        delay = self.delay_ms
        if self.jitter_ms > 0:
            delay += self.rng.uniform(0.0, self.jitter_ms)
        deliver_at = tx_done + delay
        if deliver_at < self._last_delivery_at:
            deliver_at = self._last_delivery_at
        self._last_delivery_at = deliver_at
        pending.append((deliver_at, size))
        relay = self.relay
        if relay is None:
            self.loop.call_at(deliver_at, on_deliver, packet)
        elif self.relay_delay_ms > 0:
            self.loop.call_at(deliver_at, self._relay_later, packet, on_deliver)
        else:
            self.loop.call_at(deliver_at, relay, packet, on_deliver)
        return True

    def _relay_later(
        self, packet: Packet, on_deliver: Callable[[Packet], None]
    ) -> None:
        """A relayed packet's arrival on a hop with a forward delay: it
        enters the next hop :attr:`relay_delay_ms` later."""
        self.loop.call_later(self.relay_delay_ms, self.relay, packet, on_deliver)


# The C core when the kernel is built, the pure-Python one otherwise.
if _ckernel is not None:
    _ckernel._install_link(NoLoss, BernoulliLoss)
    _LinkCore = _ckernel.LinkCore
else:  # pragma: no cover - exercised on hosts without a C toolchain
    _LinkCore = _PyLinkCore


class Link(_LinkCore):
    """One direction of a network path.

    Parameters
    ----------
    loop:
        The simulation event loop.
    delay_ms:
        One-way propagation delay.
    rate_mbps:
        Bottleneck rate in megabits per second.  ``None`` means
        infinitely fast serialization (useful in unit tests).
    loss:
        Loss model applied per packet at ingress.
    jitter_ms:
        If positive, uniform jitter in ``[0, jitter_ms]`` added to the
        propagation delay (delivery order is still preserved).
    rng:
        Randomness source for loss and jitter; pass a seeded
        :class:`random.Random` for reproducibility.

    :attr:`stats` settles on read.  Delivered counters are not bumped
    by an event of their own: each accepted packet queues ``(deliver_at,
    size)`` in one FIFO (shared with :meth:`reserve_transmit`), and
    :meth:`settle` folds the due head of that FIFO into the counters.
    Reading :attr:`stats` at time *t* settles everything due by *t* —
    including a same-instant delivery whose callback is still queued —
    and nothing due later.  After ``loop.run()`` drains the loop, the
    delivered counters equal the delivery callbacks that ran.

    The per-packet methods (:meth:`transmit`, :meth:`reserve_transmit`,
    :meth:`settle`) come from the base class.  When the C kernel is
    built — the default whenever a C compiler is on the path — that is
    ``LinkCore`` from ``repro/events/_ckernel.c``: the FIFO, the
    transmitter state and the counters live in C, on the C event loop
    a delivery (or a relay into the next hop) is scheduled without a
    Python call, and a :class:`BernoulliLoss` (that exact type) is
    drawn in C with the draw and compare of its ``should_drop``.
    Otherwise (no compiler, or ``REPRO_NO_CKERNEL=1``) it is
    :class:`_PyLinkCore`.
    Both give the same results, bit for bit, on either scheduler.
    """

    def __init__(
        self,
        loop: EventLoop,
        delay_ms: float,
        rate_mbps: float | None = None,
        loss: LossModel | None = None,
        jitter_ms: float = 0.0,
        rng: random.Random | None = None,
        name: str = "link",
    ) -> None:
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        if rate_mbps is not None and rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be positive, got {rate_mbps}")
        if jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {jitter_ms}")
        self.loop = loop
        self.delay_ms = delay_ms
        self.rate_mbps = rate_mbps
        self.loss = loss if loss is not None else NoLoss()
        self.jitter_ms = jitter_ms
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self._stats = LinkStats()
        #: Optional deterministic drop hook (failure injection in tests):
        #: called with each packet before the stochastic loss model; a
        #: truthy return drops the packet.
        self.drop_filter: Callable[[Packet], bool] | None = None
        #: Optional sim-time metrics sampler (repro.obs.metrics), set by
        #: the ObsContext per visit and detached at drain; sampled after
        #: the transmitter slot is reserved so it sees the backlog.
        self.sampler = None
        #: Optional next hop (a multi-segment path wires it): its
        #: ``transmit``, called as ``relay(packet, on_deliver)`` when a
        #: packet arrives here, ``relay_delay_ms`` later when positive.
        #: A drop on the next hop is silent to this link's sender.
        self.relay: Callable[[Packet, Callable[[Packet], None]], bool] | None = None
        self.relay_delay_ms = 0.0
        # Time at which the transmitter finishes serializing the packet
        # currently on the wire; packets queue behind it (FIFO).
        self._tx_free_at = 0.0
        # Earliest permissible delivery time, to keep FIFO ordering under
        # jitter (a jittered packet may not overtake its predecessor).
        self._last_delivery_at = 0.0
        # Accepted-but-not-yet-due deliveries, transmitted or reserved:
        # ``(deliver_at, size_bytes)`` in nondecreasing ``deliver_at``
        # order (guaranteed by the ``_last_delivery_at`` monotonicity),
        # settled into the delivered stats once the clock reaches them.
        self._pending: deque[tuple[float, int]] = deque()

    @property
    def stats(self) -> LinkStats:
        """The link's counters, with every delivery due by now settled."""
        self.settle(self.loop.now)
        return self._stats

    @property
    def fast_path_eligible(self) -> bool:
        """Whether delivery on this link is a pure function of size+time.

        True when nothing stochastic or injected can touch a packet: no
        loss model, no jitter, no drop filter.  Only then may the
        analytic transport fast path reserve transmissions without
        simulating them (:meth:`reserve_transmit`).
        """
        return (
            isinstance(self.loss, NoLoss)
            and self.jitter_ms == 0.0
            and self.drop_filter is None
        )

    def __repr__(self) -> str:
        rate = f"{self.rate_mbps}Mbps" if self.rate_mbps else "inf"
        return f"<Link {self.name} {self.delay_ms}ms {rate} {self.loss!r}>"
