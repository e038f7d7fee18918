"""qlog-inspired per-connection event tracing.

Real QUIC measurement studies standardize on qlog endpoint traces
(draft-ietf-quic-qlog); this module is the simulator's analogue.  A
:class:`ConnectionTracer` records timestamped events — packets sent,
acked and lost, cwnd updates, PTO fires, handshake phase transitions,
0-RTT decisions, stream opens/closes, and head-of-line-blocking stall
intervals — for exactly one simulated connection.

When tracing is disabled the transports hold the falsy
:data:`NULL_TRACER` singleton, and every instrumentation point is
guarded with ``if self.tracer:`` — the disabled cost is one attribute
load and a boolean check answered in C, never a Python call or an
allocation.  That is what keeps tracer-off campaigns bit-identical and
within the <5% overhead budget.
"""

from __future__ import annotations

#: Every event name a tracer may emit (the JSONL schema's closed set).
#: Names follow qlog's ``category:event`` convention.
EVENT_NAMES: frozenset[str] = frozenset(
    {
        "transport:handshake_started",
        "transport:handshake_flight",
        "transport:handshake_completed",
        "recovery:handshake_timeout",
        "transport:packet_sent",
        "transport:packet_received",
        "transport:packet_acked",
        "transport:packet_lost",
        "transport:hol_stall_started",
        "transport:hol_stall_ended",
        "recovery:metrics_updated",
        "recovery:pto_fired",
        "security:session_ticket_hit",
        "security:session_ticket_miss",
        "security:session_ticket_rejected",
        "security:zero_rtt_accepted",
        "http:stream_opened",
        "http:stream_closed",
        # Fault-injection events (repro.faults): one per injected fault.
        "fault:blackout",
        "fault:udp_blackhole",
        "fault:edge_outage",
        "fault:dns_failure",
        "fault:connection_reset",
        "fault:zero_rtt_reject",
        "fault:nat_rebind",
        "fault:wifi_to_cellular",
        # Connection-migration outcomes: QUIC carries the connection
        # across the address change; TCP must tear down and reconnect.
        "migration:migrated",
        "migration:reconnect",
        # Proxy topology events (repro.netsim.proxy): a CONNECT-style
        # tunnel downgrading a client's H3 attempt to H2.
        "proxy:h3_downgrade",
        # Client-side recovery actions taken in response to faults.
        "recovery:h3_fallback",
        "recovery:connect_timeout",
        "recovery:connect_retry",
        "recovery:request_timeout",
        "recovery:request_retry",
        "recovery:request_failed",
        "recovery:dns_retry",
        # Sim-time metrics samples (repro.obs.metrics): periodic
        # transport / link timeseries, same JSONL record shape.
        "metrics:transport_sample",
        "metrics:link_sample",
        # CDN cache-hierarchy events (repro.cdn.hierarchy): where in the
        # tier chain each request was answered.
        "cache:hit",
        "cache:miss",
        # Provider-side byte accounting (repro.cdn.economics).
        "economics:egress",
        "economics:origin_fetch",
    }
)


# Shared key tuples for the preallocated record shapes the specialized
# hot-path methods emit.  One module-level constant per shape keeps the
# per-event allocation to exactly one values tuple — the kwargs dict and
# the per-record dict the generic ``event`` path pays are deferred to
# export time (``events`` / ``tagged_events``), where they are built
# once per drain instead of once per packet.
_SENT_KEYS = ("seq", "size", "dir", "retransmission")
_RECV_KEYS = ("seq", "size", "retransmission")
_ACK_KEYS = ("seq",)
_LOST_KEYS = ("seq", "trigger")
_METRICS_KEYS = ("cwnd", "ssthresh", "bytes_in_flight")


class NullTracer(tuple):
    """The do-nothing, falsy tracer installed when tracing is off.

    Falsiness is the contract: hot paths guard with ``if self.tracer:``
    so a disabled connection never even enters the tracing call.  It is
    an empty ``tuple``, so that test is answered by the tuple's C length
    slot without a Python ``__bool__`` call.  The no-op methods keep
    unguarded (cold-path) call sites safe.
    """

    __slots__ = ()

    def event(self, time: float, name: str, **data) -> None:
        pass

    def packet_sent(self, time, seq, size, direction, retransmission) -> None:
        pass

    def packet_received(self, time, seq, size, retransmission) -> None:
        pass

    def packet_acked(self, time, seq) -> None:
        pass

    def packet_lost(self, time, seq, trigger) -> None:
        pass

    def metrics_updated(self, time, cwnd, ssthresh, bytes_in_flight) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: Shared singleton; there is never a reason to allocate more than one.
NULL_TRACER = NullTracer()


class ConnectionTracer:
    """Event recorder for one connection (one qlog trace).

    Events are appended in simulation-callback order, which the
    deterministic event loop makes reproducible run to run.

    Records are held as flat ``(time, name, keys, *values)`` tuples —
    ``keys`` is a shared constant tuple naming the trailing values for
    the specialized packet-rate methods, or ``None`` when the fourth
    element is already the data dict from the generic :meth:`event`
    path.  Dict materialization happens at export time, off the
    simulation hot path.
    """

    __slots__ = ("name", "protocol", "_records")

    def __init__(self, name: str, protocol: str) -> None:
        self.name = name
        self.protocol = protocol
        self._records: list[tuple] = []

    def __bool__(self) -> bool:
        return True

    # -- recording (hot) -----------------------------------------------

    def event(self, time: float, name: str, **data) -> None:
        """Record one event at simulated time ``time`` (ms)."""
        self._records.append((time, name, None, data))

    # The specialized recorders flatten the field values INTO the record
    # tuple (one allocation per event, no nested values tuple): traced
    # campaigns allocate millions of records, and halving the container
    # allocations halves the cyclic-GC collections they trigger.

    def packet_sent(self, time, seq, size, direction, retransmission) -> None:
        self._records.append(
            (time, "transport:packet_sent", _SENT_KEYS,
             seq, size, direction, retransmission)
        )

    def packet_received(self, time, seq, size, retransmission) -> None:
        self._records.append(
            (time, "transport:packet_received", _RECV_KEYS,
             seq, size, retransmission)
        )

    def packet_acked(self, time, seq) -> None:
        self._records.append(
            (time, "transport:packet_acked", _ACK_KEYS, seq)
        )

    def packet_lost(self, time, seq, trigger) -> None:
        self._records.append(
            (time, "transport:packet_lost", _LOST_KEYS, seq, trigger)
        )

    def metrics_updated(self, time, cwnd, ssthresh, bytes_in_flight) -> None:
        self._records.append(
            (time, "recovery:metrics_updated", _METRICS_KEYS,
             cwnd, ssthresh, bytes_in_flight)
        )

    # -- export (drain time) -------------------------------------------

    @property
    def events(self) -> list[dict]:
        """Materialized ``{"time", "name", "data"}`` view of the trace."""
        return [
            {
                "time": record[0],
                "name": record[1],
                "data": (
                    dict(zip(record[2], record[3:]))
                    if record[2] is not None
                    else record[3]
                ),
            }
            for record in self._records
        ]

    def count(self, name: str) -> int:
        """Number of recorded events with the given name."""
        return sum(1 for record in self._records if record[1] == name)

    def tagged_events(self) -> list[dict]:
        """Events with the connection context folded in (export form)."""
        conn = self.name
        protocol = self.protocol
        return [
            {
                "conn": conn,
                "protocol": protocol,
                "time": record[0],
                "name": record[1],
                "data": (
                    dict(zip(record[2], record[3:]))
                    if record[2] is not None
                    else record[3]
                ),
            }
            for record in self._records
        ]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConnectionTracer {self.name} events={len(self._records)}>"


class TraceLog:
    """Lazy, list-of-dicts-compatible view over drained trace records.

    ``ObsContext.drain_visit`` hands each :class:`PageVisit` one of
    these instead of an eagerly materialized event list: the compact
    record tuples are kept as-is (zero per-event work at drain time) and
    the ``{"conn", "protocol", "time", "name", "data"}`` export dicts
    are built once, on first iteration/indexing — which for tracer-on
    throughput runs that never read the trace means *never*.  A visit
    that crosses a process or store boundary materializes in
    ``PageVisit.to_dict`` and arrives on the other side as the plain
    list this class is interchangeable with.
    """

    __slots__ = ("_tracers", "_flat")

    def __init__(self, tracers: list[ConnectionTracer]) -> None:
        # Hold the tracer objects (detached from their ObsContext by
        # drain), not copies: their record lists are no longer growing.
        self._tracers = list(tracers)
        self._flat: list[dict] | None = None

    def _materialize(self) -> list[dict]:
        flat = self._flat
        if flat is None:
            flat = []
            for tracer in self._tracers:
                flat.extend(tracer.tagged_events())
            self._flat = flat
        return flat

    def __len__(self) -> int:
        if self._flat is not None:
            return len(self._flat)
        return sum(len(tracer) for tracer in self._tracers)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceLog):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def to_jsonable(self) -> list[dict]:
        """The materialized plain-list form (for HAR/store documents)."""
        return self._materialize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceLog events={len(self)}>"
