"""Sim-time metrics sampling: periodic transport/link timeseries.

Point events (:mod:`repro.obs.trace`) answer *what happened*; the
metrics sampler answers *what the state looked like over time* — the
cwnd-vs-time, queue-depth and goodput curves behind the paper's
Figs. 6–9.  A :class:`ConnectionSampler` rides along on one connection
and a :class:`LinkSampler` on one simulated link; both take a sample at
most once per configurable sim-time interval (Δt) into a bounded ring
buffer, and drain as the ``metrics:`` JSONL record family.

Determinism contract
--------------------

Samplers are **passive**: they never schedule events.  A sample is
taken at the first transport/link callback at-or-after each Δt grid
boundary (plus forced samples on loss and PTO, which are themselves
sim events), so a sampler-on run executes the exact same event
sequence as a sampler-off run and results stay bit-identical — the
same invariant the tracer keeps.  The only behavioural interaction is
that an attached connection sampler forces the analytic fast path off
(it wants the real per-packet dynamics), mirroring tracer/strict
semantics.

When sampling is disabled the transports hold the falsy
:data:`NULL_SAMPLER` singleton and hot paths guard with
``if self.sampler:`` — one attribute load plus a boolean check, never
a call.
"""

from __future__ import annotations

from collections import deque

#: Record names this module emits (registered in the trace schema).
TRANSPORT_SAMPLE = "metrics:transport_sample"
LINK_SAMPLE = "metrics:link_sample"

#: Default ring-buffer capacity per sampler (oldest samples drop first).
DEFAULT_MAX_SAMPLES = 512


class NullSampler(tuple):
    """The do-nothing, falsy sampler installed when sampling is off.

    Same contract as :class:`~repro.obs.trace.NullTracer`: an empty
    ``tuple``, so hot paths guard with ``if self.sampler:`` at the cost
    of one attribute load and a boolean check answered in C.
    """

    __slots__ = ()

    def on_ack(self, conn) -> None:
        pass

    def on_loss(self, conn) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSampler>"


#: Shared singleton; there is never a reason to allocate more than one.
NULL_SAMPLER = NullSampler()


class ConnectionSampler:
    """Δt-gated state sampler for one connection.

    Samples ``(time, cwnd, bytes_in_flight, srtt_ms, goodput_kbps)``
    flat tuples into a bounded ring.  ``on_ack`` is called from the
    server-side ack path (the point where cwnd/rtt just changed) and
    samples only when sim time has crossed the next Δt grid boundary;
    ``on_loss`` forces a sample so congestion events are never missed
    between grid points.  Goodput is averaged over the window since the
    previous sample (kbit/s of acked response payload).
    """

    __slots__ = (
        "name",
        "protocol",
        "interval_ms",
        "_samples",
        "_next_due",
        "_last_time",
        "_last_delivered",
    )

    def __init__(
        self,
        name: str,
        protocol: str,
        interval_ms: float,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        self.name = name
        self.protocol = protocol
        self.interval_ms = interval_ms
        self._samples: deque[tuple] = deque(maxlen=max_samples)
        self._next_due = 0.0
        self._last_time = 0.0
        self._last_delivered = 0

    def __bool__(self) -> bool:
        return True

    # -- recording (hot) -----------------------------------------------

    def on_ack(self, conn) -> None:
        if conn.loop.now < self._next_due:
            return
        self._sample(conn)

    def on_loss(self, conn) -> None:
        self._sample(conn)

    def _sample(self, conn) -> None:
        now = conn.loop.now
        delivered = conn._delivered_bytes
        window_ms = now - self._last_time
        if window_ms > 0:
            # bytes/ms == kB/s; ×8 → kbit/s.
            goodput_kbps = (delivered - self._last_delivered) * 8.0 / window_ms
        else:
            goodput_kbps = 0.0
        self._samples.append(
            (
                now,
                conn.cc.cwnd_bytes,
                conn._bytes_in_flight,
                conn.rtt.srtt_ms,
                goodput_kbps,
            )
        )
        self._last_time = now
        self._last_delivered = delivered
        interval = self.interval_ms
        self._next_due = (now // interval + 1.0) * interval

    # -- export (drain time) -------------------------------------------

    def records(self) -> list[dict]:
        """Materialized, connection-tagged ``metrics:`` records."""
        conn = self.name
        protocol = self.protocol
        return [
            {
                "conn": conn,
                "protocol": protocol,
                "time": time,
                "name": TRANSPORT_SAMPLE,
                "data": {
                    "cwnd": cwnd,
                    "bytes_in_flight": in_flight,
                    "srtt_ms": srtt,
                    "goodput_kbps": goodput,
                },
            }
            for time, cwnd, in_flight, srtt, goodput in self._samples
        ]

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConnectionSampler {self.name} samples={len(self._samples)}>"


class LinkSampler:
    """Δt-gated queue/throughput sampler for one simulated link.

    ``on_transmit`` is called from :meth:`repro.netsim.link.Link.transmit`
    after the transmitter slot is reserved.  Bytes are accumulated every
    call (one integer add between samples); when sim time crosses the
    Δt boundary the sampler records ``(time, queue_ms, throughput_kbps)``
    where ``queue_ms`` is how far the transmitter is booked ahead of
    *now* (serialization backlog, the sim's pacing/queue depth) and
    ``throughput_kbps`` averages the bytes offered since the previous
    sample.
    """

    __slots__ = (
        "name",
        "interval_ms",
        "_samples",
        "_next_due",
        "_last_time",
        "_window_bytes",
    )

    #: The ``protocol`` tag link records carry (there is no transport).
    protocol = "link"

    def __init__(
        self,
        name: str,
        interval_ms: float,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        self.name = name
        self.interval_ms = interval_ms
        self._samples: deque[tuple] = deque(maxlen=max_samples)
        self._next_due = 0.0
        self._last_time = 0.0
        self._window_bytes = 0

    def __bool__(self) -> bool:
        return True

    # -- recording (hot) -----------------------------------------------

    def on_transmit(self, now: float, tx_done: float, size_bytes: int) -> None:
        self._window_bytes += size_bytes
        if now < self._next_due:
            return
        window_ms = now - self._last_time
        throughput_kbps = (
            self._window_bytes * 8.0 / window_ms if window_ms > 0 else 0.0
        )
        self._samples.append((now, max(0.0, tx_done - now), throughput_kbps))
        self._last_time = now
        self._window_bytes = 0
        interval = self.interval_ms
        self._next_due = (now // interval + 1.0) * interval

    # -- export (drain time) -------------------------------------------

    def records(self) -> list[dict]:
        """Materialized, link-tagged ``metrics:`` records."""
        conn = self.name
        return [
            {
                "conn": conn,
                "protocol": self.protocol,
                "time": time,
                "name": LINK_SAMPLE,
                "data": {
                    "queue_ms": queue_ms,
                    "throughput_kbps": throughput,
                },
            }
            for time, queue_ms, throughput in self._samples
        ]

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkSampler {self.name} samples={len(self._samples)}>"


def timeseries(
    records: list[dict] | "object", field: str, name: str | None = None
) -> dict[str, list[tuple[float, float]]]:
    """Group ``metrics:`` records into per-source (time, value) series.

    ``records`` is any iterable of metrics records (a visit's drained
    ``metrics`` list or :meth:`CampaignResult.metrics_events` output);
    ``field`` selects the data field to plot (``"cwnd"``,
    ``"goodput_kbps"``, ``"queue_ms"``, ...), ``name`` optionally
    restricts to one record family.  The result feeds straight into
    :func:`repro.analysis.textplot.line_chart`::

        print("\\n".join(line_chart(timeseries(visit.metrics, "cwnd"))))
    """
    series: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        if name is not None and record.get("name") != name:
            continue
        value = record.get("data", {}).get(field)
        if value is None:
            continue
        series.setdefault(record["conn"], []).append(
            (record["time"], float(value))
        )
    return series
