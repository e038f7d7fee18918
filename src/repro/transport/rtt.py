"""Smoothed RTT estimation and retransmission timeout (RFC 6298 / 9002)."""

from __future__ import annotations


class RttEstimator:
    """Exponentially weighted RTT statistics driving the RTO/PTO.

    Follows RFC 6298: ``srtt`` with gain 1/8, ``rttvar`` with gain 1/4,
    and ``rto = srtt + 4 * rttvar`` clamped to a configurable floor.

    ``rto_ms`` is a plain attribute, recomputed by :meth:`on_sample`:
    the transports read it on every timer arm, far more often than a
    sample arrives.

    Slotted: the C transport core runs :meth:`on_sample` for an instance
    of exactly this class itself, reading and writing the fields in
    place with the same float operations in the same order.
    """

    __slots__ = (
        "_min_rto_ms", "srtt_ms", "rttvar_ms", "latest_sample_ms", "samples", "rto_ms",
    )

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0

    def __init__(self, initial_rto_ms: float = 200.0, min_rto_ms: float = 25.0) -> None:
        if initial_rto_ms <= 0 or min_rto_ms <= 0:
            raise ValueError("timeouts must be positive")
        self._min_rto_ms = min_rto_ms
        self.srtt_ms: float | None = None
        self.rttvar_ms: float = 0.0
        self.latest_sample_ms: float | None = None
        self.samples = 0
        #: Current retransmission timeout (the initial RTO until the
        #: first sample).
        self.rto_ms: float = initial_rto_ms

    def on_sample(self, rtt_ms: float) -> None:
        """Feed one RTT measurement (never from a retransmitted packet,
        per Karn's algorithm — the caller enforces that)."""
        if rtt_ms < 0:
            raise ValueError(f"rtt sample must be >= 0, got {rtt_ms}")
        self.latest_sample_ms = rtt_ms
        self.samples += 1
        if self.srtt_ms is None:
            self.srtt_ms = rtt_ms
            self.rttvar_ms = rtt_ms / 2.0
        else:
            self.rttvar_ms = (1 - self.BETA) * self.rttvar_ms + self.BETA * abs(
                self.srtt_ms - rtt_ms
            )
            self.srtt_ms = (1 - self.ALPHA) * self.srtt_ms + self.ALPHA * rtt_ms
        self.rto_ms = max(self._min_rto_ms, self.srtt_ms + 4.0 * self.rttvar_ms)
