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
from repro.netsim.loss import LossModel, NoLoss
from repro.netsim.packet import Packet


@dataclass
class LinkStats:
    """Counters a link maintains for diagnostics and the ethics section.

    The paper reports average probe traffic (126.7 Kbps); these counters
    let the measurement harness compute the analogous figure.
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


class Link:
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
        self.stats = LinkStats()
        #: Optional deterministic drop hook (failure injection in tests):
        #: called with each packet before the stochastic loss model; a
        #: truthy return drops the packet.
        self.drop_filter: Callable[[Packet], bool] | None = None
        #: Optional sim-time metrics sampler (repro.obs.metrics), set by
        #: the ObsContext per visit and detached at drain; sampled after
        #: the transmitter slot is reserved so it sees the backlog.
        self.sampler = None
        # Time at which the transmitter finishes serializing the packet
        # currently on the wire; packets queue behind it (FIFO).
        self._tx_free_at = 0.0
        # Earliest permissible delivery time, to keep FIFO ordering under
        # jitter (a jittered packet may not overtake its predecessor).
        self._last_delivery_at = 0.0
        # Reserved-but-not-yet-due deliveries (analytic fast path):
        # ``(deliver_at, size_bytes)`` in nondecreasing ``deliver_at``
        # order (guaranteed by the ``_last_delivery_at`` monotonicity),
        # settled into the delivered stats once the clock reaches them.
        self._pending_reserved: deque[tuple[float, int]] = deque()

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
        :meth:`settle_reserved`, so mid-visit readers (link samplers,
        ethics accounting, progress heartbeats) never see in-flight
        bytes as already delivered.
        """
        if self._pending_reserved:
            self.settle_reserved(now)
        self.stats.sent_packets += 1
        self.stats.sent_bytes += size_bytes
        start = now if now > self._tx_free_at else self._tx_free_at
        if self.rate_mbps is None:
            tx_done = start
        else:
            tx_done = start + (size_bytes * 8) / (self.rate_mbps * 1000.0)
            self.stats.busy_time_ms += tx_done - start
        self._tx_free_at = tx_done
        deliver_at = tx_done + self.delay_ms
        if deliver_at < self._last_delivery_at:
            deliver_at = self._last_delivery_at
        self._last_delivery_at = deliver_at
        self._pending_reserved.append((deliver_at, size_bytes))
        return deliver_at

    def settle_reserved(self, now: float) -> None:
        """Fold reserved deliveries due by ``now`` into the stats.

        Reservations are queued in nondecreasing delivery order, so a
        single front-of-queue sweep settles everything due.  The
        analytic walk settles both links when it finishes (at its final
        virtual time), which keeps end-of-visit totals identical to the
        packet path's.
        """
        pending = self._pending_reserved
        while pending and pending[0][0] <= now:
            _, size_bytes = pending.popleft()
            self.stats.delivered_packets += 1
            self.stats.delivered_bytes += size_bytes

    def transmit(self, packet: Packet, on_deliver: Callable[[Packet], None]) -> bool:
        """Send ``packet``; returns ``False`` if it was dropped.

        The delivery callback runs on the event loop after queueing +
        serialization + propagation (+ jitter).  Loss is applied up
        front: a dropped packet still occupies the transmitter (it is
        lost *after* being serialized, as on a real path).
        """
        now = self.loop.now
        if self._pending_reserved:
            self.settle_reserved(now)
        size = packet.size_bytes
        stats = self.stats
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
        loss_dropped = self.loss.should_drop(self.rng)
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
        self.loop.call_at(deliver_at, self._deliver, packet, on_deliver)
        return True

    def _deliver(self, packet: Packet, on_deliver: Callable[[Packet], None]) -> None:
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += packet.size_bytes
        on_deliver(packet)

    def __repr__(self) -> str:
        rate = f"{self.rate_mbps}Mbps" if self.rate_mbps else "inf"
        return f"<Link {self.name} {self.delay_ms}ms {rate} {self.loss!r}>"
