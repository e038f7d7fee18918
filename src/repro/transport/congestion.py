"""Congestion controllers shared by the TCP and QUIC models.

The paper notes (citing Yu & Benson and Cloudflare) that production QUIC
performance varies with the congestion control implementation; we provide
NewReno (the RFC 9002 default) and a simplified CUBIC so benches can
ablate the choice.  Controllers work in bytes and are agnostic to which
transport drives them.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class CongestionController(Protocol):
    """Interface both transports program against."""

    @property
    def cwnd_bytes(self) -> int:
        """Current congestion window in bytes."""
        ...  # pragma: no cover - protocol stub

    def on_ack(self, acked_bytes: int, now_ms: float) -> None:
        """Bytes newly acknowledged."""
        ...  # pragma: no cover - protocol stub

    def on_loss(self, now_ms: float) -> None:
        """A loss event (at most one per round trip is reported)."""
        ...  # pragma: no cover - protocol stub

    def on_rto(self, now_ms: float) -> None:
        """A retransmission timeout fired (persistent congestion)."""
        ...  # pragma: no cover - protocol stub


class NewRenoController:
    """Slow start + AIMD congestion avoidance (RFC 5681 / RFC 9002).

    Slotted: the C transport core runs :meth:`on_ack` (and reads
    ``cwnd_bytes``) for an instance of exactly this class itself, with
    the same operations and result types (``_cwnd`` stays an ``int``
    until congestion avoidance).  Subclasses are always called.
    """

    __slots__ = ("mss", "_cwnd", "_initial_cwnd", "_ssthresh", "_min_cwnd", "loss_events")

    def __init__(self, mss: int, initial_cwnd_packets: int = 10) -> None:
        self.mss = mss
        self._cwnd = mss * initial_cwnd_packets
        self._initial_cwnd = self._cwnd
        self._ssthresh = float("inf")
        self._min_cwnd = 2 * mss
        self.loss_events = 0

    @property
    def cwnd_bytes(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh_bytes(self) -> int | None:
        """Slow-start threshold for tracing; ``None`` until a loss."""
        return None if self._ssthresh == float("inf") else int(self._ssthresh)

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self._ssthresh

    def on_ack(self, acked_bytes: int, now_ms: float) -> None:
        if self.in_slow_start:
            self._cwnd += acked_bytes
        else:
            # Congestion avoidance: ~one MSS per cwnd of acked data.
            self._cwnd += self.mss * acked_bytes / self._cwnd

    def on_loss(self, now_ms: float) -> None:
        self.loss_events += 1
        self._ssthresh = max(self._cwnd / 2.0, self._min_cwnd)
        self._cwnd = self._ssthresh

    def on_rto(self, now_ms: float) -> None:
        self.loss_events += 1
        self._ssthresh = max(self._cwnd / 2.0, self._min_cwnd)
        self._cwnd = self._min_cwnd

    def __repr__(self) -> str:
        return f"NewRenoController(cwnd={self.cwnd_bytes}B)"


class CubicController:
    """Simplified CUBIC (RFC 8312): cubic window growth after a loss.

    The window grows as ``W(t) = C*(t - K)^3 + W_max`` where ``K`` is the
    time to regain ``W_max`` after a multiplicative decrease by ``beta``.
    Slow start behaves like NewReno until the first loss.

    Slotted, and run by the C transport core as :class:`NewRenoController`
    is; both ``**`` are C ``pow()`` there, as ``float.__pow__`` computes
    them.
    """

    __slots__ = ("mss", "_cwnd", "_ssthresh", "_min_cwnd", "_w_max", "_epoch_start_ms",
                 "loss_events")

    C = 0.4  # scaling constant, windows in MSS units, time in seconds
    BETA = 0.7

    def __init__(self, mss: int, initial_cwnd_packets: int = 10) -> None:
        self.mss = mss
        self._cwnd = float(mss * initial_cwnd_packets)
        self._ssthresh = float("inf")
        self._min_cwnd = 2.0 * mss
        self._w_max: float | None = None
        self._epoch_start_ms: float | None = None
        self.loss_events = 0

    @property
    def cwnd_bytes(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh_bytes(self) -> int | None:
        """Slow-start threshold for tracing; ``None`` until a loss."""
        return None if self._ssthresh == float("inf") else int(self._ssthresh)

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self._ssthresh

    def _cubic_window(self, now_ms: float) -> float:
        assert self._w_max is not None and self._epoch_start_ms is not None
        w_max_seg = self._w_max / self.mss
        k = (w_max_seg * (1 - self.BETA) / self.C) ** (1.0 / 3.0)
        t = (now_ms - self._epoch_start_ms) / 1000.0
        target_seg = self.C * (t - k) ** 3 + w_max_seg
        return max(self._min_cwnd, target_seg * self.mss)

    def on_ack(self, acked_bytes: int, now_ms: float) -> None:
        if self.in_slow_start:
            self._cwnd += acked_bytes
            return
        if self._w_max is None:
            # Left slow start without a loss (ssthresh hit): emulate Reno.
            self._cwnd += self.mss * acked_bytes / self._cwnd
            return
        self._cwnd = max(self._cwnd, self._cubic_window(now_ms))

    def on_loss(self, now_ms: float) -> None:
        self.loss_events += 1
        self._w_max = self._cwnd
        self._epoch_start_ms = now_ms
        self._cwnd = max(self._cwnd * self.BETA, self._min_cwnd)
        self._ssthresh = self._cwnd

    def on_rto(self, now_ms: float) -> None:
        self.loss_events += 1
        self._w_max = self._cwnd
        self._epoch_start_ms = now_ms
        self._ssthresh = max(self._cwnd * self.BETA, self._min_cwnd)
        self._cwnd = self._min_cwnd

    def __repr__(self) -> str:
        return f"CubicController(cwnd={self.cwnd_bytes}B)"


class BbrLikeController:
    """A simplified model-based (BBR-flavoured) controller.

    Real BBR paces by an explicit model of the path: bottleneck
    bandwidth (max delivery rate seen) × minimum RTT, with a gain
    factor.  This simplification keeps the two model estimators and the
    defining behavioural difference from loss-based control: **packet
    loss does not collapse the window** — only the model does.  The
    caller feeds delivery-rate samples through :meth:`on_rate_sample`;
    without samples it behaves like slow start capped at a high ceiling.
    """

    CWND_GAIN = 2.0

    def __init__(self, mss: int, initial_cwnd_packets: int = 10) -> None:
        self.mss = mss
        self._cwnd = float(mss * initial_cwnd_packets)
        self._min_cwnd = 4.0 * mss
        self._max_cwnd = 4096.0 * mss
        self._btl_bw_bytes_per_ms: float | None = None
        self._min_rtt_ms: float | None = None
        self.loss_events = 0

    @property
    def cwnd_bytes(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh_bytes(self) -> None:
        """BBR has no slow-start threshold; always ``None``."""
        return None

    def on_rate_sample(self, bytes_per_ms: float, rtt_ms: float) -> None:
        """Feed a delivery-rate / RTT observation into the path model."""
        if bytes_per_ms <= 0 or rtt_ms <= 0:
            return
        if self._btl_bw_bytes_per_ms is None or bytes_per_ms > self._btl_bw_bytes_per_ms:
            self._btl_bw_bytes_per_ms = bytes_per_ms
        if self._min_rtt_ms is None or rtt_ms < self._min_rtt_ms:
            self._min_rtt_ms = rtt_ms
        bdp = self._btl_bw_bytes_per_ms * self._min_rtt_ms
        self._cwnd = min(self._max_cwnd, max(self._min_cwnd, self.CWND_GAIN * bdp))

    def on_ack(self, acked_bytes: int, now_ms: float) -> None:
        if self._btl_bw_bytes_per_ms is None:
            # Startup: exponential growth until the model forms.
            self._cwnd = min(self._max_cwnd, self._cwnd + acked_bytes)

    def on_loss(self, now_ms: float) -> None:
        # BBR ignores isolated losses by design (no multiplicative
        # decrease); it only counts them.
        self.loss_events += 1

    def on_rto(self, now_ms: float) -> None:
        # Persistent congestion: even BBR backs off to a conservative
        # window and restarts the model.
        self.loss_events += 1
        self._cwnd = self._min_cwnd
        self._btl_bw_bytes_per_ms = None

    def __repr__(self) -> str:
        return f"BbrLikeController(cwnd={self.cwnd_bytes}B)"


def make_congestion_controller(
    name: str, mss: int, initial_cwnd_packets: int = 10
) -> CongestionController:
    """Factory used by :class:`~repro.transport.config.TransportConfig`."""
    controllers = {
        "newreno": NewRenoController,
        "cubic": CubicController,
        "bbr": BbrLikeController,
    }
    try:
        cls = controllers[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown congestion controller {name!r}; choose from {sorted(controllers)}"
        ) from None
    return cls(mss, initial_cwnd_packets)
