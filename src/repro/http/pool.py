"""Per-origin connection pooling with Chrome-like reuse rules.

Pooling is the mechanism behind two of the paper's findings:

* **Reused connections** (Fig. 7): all requests to a host after the
  connection-opening one ride the existing connection and report a
  connect time of 0 — exactly the paper's criterion for a "reused HTTP
  connection" in the Chrome-HAR data.  One table of lanes holds every
  connection: H2/H3 multiplex everything over the single connection of
  a ``(coalesce_key, protocol)`` lane, while an H1.1 ``(host, H1)``
  lane opens up to six parallel connections and serializes requests
  on each.
* **Resumed connections** (Fig. 8): when a session ticket is cached for
  the host, new connections are created in resumed mode (H3: 0-RTT;
  H2+TLS1.3: TCP round trip only), and fresh tickets are stored after
  every full handshake.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, Protocol

from repro.check.context import EPSILON_MS, NULL_CHECK
from repro.events import EventLoop, ScheduledEvent
from repro.http.messages import EntryTiming, HarEntry, HttpProtocol
from repro.netsim.path import NetworkPath
from repro.tls.session_cache import SessionTicketCache
from repro.transport.base import BaseConnection
from repro.transport.config import TransportConfig
from repro.transport.quic import QuicConnection
from repro.transport.tcp import TcpConnection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.inject import FaultInjector
    from repro.http.alt_svc import AltSvcCache


#: Hot-path aliases (as in repro.transport.base): ``protocol is not _H1``
#: answers ``protocol.multiplexes`` without a property call, per request.
#: Likewise the per-request paths read a member's value as ``_value_``,
#: the plain attribute ``.value`` returns, and key the lane table by it:
#: the ``.value`` descriptor, and hashing the member (``Enum.__hash__``),
#: are Python calls.
_H1 = HttpProtocol.H1
_H3 = HttpProtocol.H3
#: The headers of a proxy-cache hit, copied into each entry.
_PROXY_HIT_HEADERS = {"x-cache": "HIT", "via": "1.1 proxy-cache"}


class Server(Protocol):
    """What the pool reads from an edge or origin server."""

    hostname: str
    tls_version: object
    coalesce_key: str  # the H2/H3 connection-coalescing group
    supports_h2: bool
    issues_tickets: bool
    resumption_rate: float  # share of presented tickets accepted
    tls_setup_cpu_ms: float  # handshake CPU, added to the opener's think
    resumed_setup_cpu_ms: float

    def serve(self, resource_key: str, size_bytes: int, protocol: str,
              accept_encoding: tuple[str, ...] | None, rtype: str | None):
        ...  # pragma: no cover - protocol stub


@dataclass
class PoolStats:
    """Counters the analyses read after a page visit.

    One rule serializes every field: its camelCase name on the wire and
    ``pool.<field>`` as a counter.  The first five fields are always
    present; the fault-era ones (``failed_requests`` onward) only when
    nonzero, so visit payloads and counter snapshots from fault-free
    runs stay byte-identical to the pre-fault format.
    """

    requests: int = 0
    connections_created: int = 0
    resumed_connections: int = 0
    #: Requests that completed on a connection they did not open.
    reused_requests: int = 0
    zero_rtt_connections: int = 0
    failed_requests: int = 0
    retried_requests: int = 0
    h3_fallbacks: int = 0
    connect_timeouts: int = 0
    connection_resets: int = 0
    quic_migrations: int = 0
    migration_reconnects: int = 0
    proxy_h3_downgrades: int = 0
    proxy_cache_hits: int = 0

    def merged_with(self, other: "PoolStats") -> "PoolStats":
        # Derived from the dataclass fields so a future counter can
        # never be silently dropped from the merge.
        return PoolStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def _serialized(self) -> Iterator[tuple[str, int]]:
        """``(field, value)`` for every field that serializes, in order."""
        for index, name in enumerate(_WIRE_NAMES):
            value = getattr(self, name)
            if value or index < _ALWAYS_SERIALIZED:
                yield name, value

    def to_dict(self) -> dict[str, int]:
        return {_WIRE_NAMES[name]: value for name, value in self._serialized()}

    @classmethod
    def from_dict(cls, raw: dict[str, int]) -> "PoolStats":
        return cls(**{name: raw.get(wire, 0) for name, wire in _WIRE_NAMES.items()})


def _camel_case(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


#: How many leading ``PoolStats`` fields serialize even when zero.
_ALWAYS_SERIALIZED = 5
#: ``PoolStats`` field name -> wire name, in field order.
_WIRE_NAMES = {f.name: _camel_case(f.name) for f in fields(PoolStats)}


class Fetch:
    """One request, from :meth:`ConnectionPool.fetch` to its HAR entry.

    The caller's own per-request object: it sets the request fields
    (``url`` through ``rtype``), hands itself to ``ConnectionPool.fetch``
    and implements :meth:`complete`.  The pool keeps the fetch's place
    in line, its fault-recovery state and its stream here.  The
    transport's stream callbacks are its bound methods, so issuing a
    request creates no function or cell.  Compared by identity: the
    pool finds a fetch in its lists with ``in`` and ``remove``.
    """

    __slots__ = (
        # -- the request, set by the caller.  ``path`` is what fault
        # recovery re-dispatches over, ``protocol`` the lane H3 fallback
        # moves to TCP; ``accept_encoding`` and ``rtype`` drive
        # compression negotiation (``None`` keeps the legacy serve path).
        "url", "request_bytes", "response_bytes", "server", "path",
        "protocol", "accept_encoding", "rtype",
        # -- set by ``ConnectionPool.fetch``: when the fetch joined the
        # pool, the recovery retries it consumed (fault injection only)
        # and its request deadline, pending while it is in flight.
        "queued_at", "attempts", "timer",
        # -- the stream, set by each issue (fault recovery may re-issue);
        # the span ids are set only when spans are recorded.
        "pooled", "entry", "issued_at", "request_span", "transfer_span",
    )

    def complete(self, entry: HarEntry) -> None:
        """Receive the fetch's entry, once, at the instant the response
        completes (or the fetch gives up): ``loop.now`` is its end."""
        raise NotImplementedError

    def on_first_byte(self, t: float) -> None:
        if self.pooled.failed:
            # Stale delivery from a torn-down connection.  Without this
            # guard a late first byte lands *after* the fetch
            # re-dispatched, stamping the old issue time into the
            # retried entry and driving its ``wait`` negative.
            return
        timing = self.entry.timings
        timing.wait = t - self.issued_at
        pool = self.pooled.pool
        if self.request_span is not None:
            self.transfer_span = pool._spans.begin(
                "transfer", self.url, t, parent=self.request_span
            )
        if pool.check:
            pool.check.require(
                timing.wait >= 0.0,
                "pool:wait_nonnegative",
                "first byte arrived before the request was issued",
                time_ms=t,
                url=self.url,
                wait_ms=timing.wait,
            )

    def on_stream_complete(self, t: float) -> None:
        pooled = self.pooled
        if pooled.failed:
            return  # stale delivery from a torn-down connection
        entry = self.entry
        timing = entry.timings
        first_byte_at = self.issued_at + timing.wait
        receive = t - first_byte_at
        if -EPSILON_MS < receive < 0.0:
            # ``issued_at + wait`` re-derives the first-byte instant
            # through a float round trip, so a stream that completes at
            # that same instant can land ~1e-13 below zero; clamp so the
            # HAR never carries a negative phase.
            receive = 0.0
        timing.receive = receive
        pool = pooled.pool
        if entry.reused:
            # Counted once per request, when it completes: a fetch that
            # fault recovery re-dispatches is dispatched more than once.
            pool.stats.reused_requests += 1
        if pool.check:
            pool.check.require(
                timing.receive >= -EPSILON_MS,
                "pool:receive_nonnegative",
                "stream completed before its first byte",
                time_ms=t,
                url=self.url,
                receive_ms=timing.receive,
            )
        if self.request_span is not None:
            spans = pool._spans
            if self.transfer_span is not None:
                spans.end(self.transfer_span, t)
            spans.end(self.request_span, t)
        pooled.inflight.remove(self)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self.complete(entry)
        if pooled.protocol is _H1:
            pooled.drain_h1()


class _PooledConnection:
    """One connection of a lane, owner of its lifecycle (queued →
    connecting → established → failed or closed, see ``repro.http``).

    The transport's callbacks and every deadline are its bound methods.
    """

    def __init__(
        self,
        pool: ConnectionPool,
        conn: BaseConnection,
        lane_key: tuple[str, str],
        resumed: bool,
        opener: Fetch,
    ) -> None:
        self.pool = pool
        self.conn = conn
        self.protocol = opener.protocol
        self.host = opener.server.hostname
        #: The pool lane the connection belongs to (see ``_dispatch``).
        self.lane_key = lane_key
        self.established = False
        self.resumed = resumed
        #: Fetches currently issued on this connection.
        self.inflight: list[Fetch] = []
        #: The opener until the handshake completes, then (multiplexed
        #: only) the fetches that waited for it.
        self.pending: deque[Fetch] = deque((opener,))
        #: Whether this connection holds a handshake-throttle slot.
        self.handshake_counted = False
        #: When the handshake actually started (post-queue).
        self.connect_started_at = 0.0
        # -- fault-recovery state (inert without an injector) ----------
        #: Handshake deadline (pending while handshaking under faults).
        self.connect_timer: ScheduledEvent | None = None
        #: Scheduled mid-transfer reset, if the profile scripts one.
        self.reset_event: ScheduledEvent | None = None
        #: Scheduled mid-transfer client address change, if scripted.
        self.migration_event: ScheduledEvent | None = None
        #: Set once the connection is torn down by fault recovery;
        #: late callbacks from the dead connection check it and bail.
        self.failed = False
        #: Open ``phase:connect`` span id while handshaking (spans only).
        self.connect_span: int | None = None
        if pool.faults is not None:
            conn.on_error = self.on_transport_error

    def connect(self, counted: bool = True) -> None:
        """Start the handshake, holding a throttle slot if ``counted``."""
        pool = self.pool
        now = pool.loop.now
        self.handshake_counted = counted
        self.connect_started_at = now
        spans = pool._spans
        if spans is not None:
            self.connect_span = spans.begin(
                "phase", f"connect:{self.host}", now, parent=spans.current_visit
            )
        if counted:
            pool._active_handshakes += 1
        faults = pool.faults
        if faults is not None:
            # Under fault injection a handshake gets a hard deadline: a
            # blackholed QUIC handshake would otherwise crawl its retry
            # ladder for tens of simulated seconds before giving up.
            self.connect_timer = pool.loop.call_later(
                faults.retry.connect_timeout_ms, self.on_connect_timeout
            )
        self.conn.connect(
            self.on_established, None if faults is None else self.on_connect_timeout
        )

    def on_established(self, result) -> None:
        pool = self.pool
        if self.failed or pool._closed:
            return  # fault recovery already tore this connection down
        self.established = True
        opener = self.pending.popleft()
        loop = pool.loop
        faults = pool.faults
        if faults is not None:
            self.connect_timer.cancel()
            self.connect_timer = None
            reset_at = faults.connection_reset_at(self.host)
            if reset_at is not None:
                self.reset_event = loop.call_at(reset_at, self.on_reset)
            migration = faults.migration_at(self.host)
            if migration is not None:
                migrate_at, kind = migration
                self.migration_event = loop.call_at(
                    migrate_at, self.on_migration, kind
                )
        ssl_ms = self.conn.ssl_ms or 0.0
        spans = pool._spans
        if spans is not None and self.connect_span is not None:
            now = loop.now
            spans.end(self.connect_span, now)
            if ssl_ms:
                # The TLS share of the handshake, reconstructed from the
                # flight timings (the handshake just completed at `now`).
                spans.add(
                    "phase", f"tls:{self.host}", now - ssl_ms, now,
                    parent=self.connect_span,
                )
            self.connect_span = None
        pool._release_handshake_slot(self)
        if result.zero_rtt:
            pool.stats.zero_rtt_connections += 1
        if pool.obs is not None:
            counters = pool.obs.counters
            counters.incr("transport.handshakes.completed")
            counters.incr("transport.handshakes.retries", result.retries)
            counters.observe("transport.handshake_ms", result.connect_ms)
            if result.zero_rtt:
                counters.incr("transport.handshakes.zero_rtt")
        if (
            pool.use_session_tickets
            and opener.server.issues_tickets
            and pool.transport_config.issue_session_tickets
        ):
            pool.session_cache.store(self.host, loop.now)
        self.issue(opener, ssl_ms)
        # Only multiplexed connections hold waiting fetches.
        while self.pending:
            self.issue(self.pending.popleft())

    def issue(self, fetch: Fetch, ssl_ms: float | None = None) -> None:
        """Issue one fetch: ``ssl_ms``, the handshake's TLS share, marks
        the connection's opener; every other fetch reuses the connection."""
        pool = self.pool
        now = pool.loop.now
        server = fetch.server
        if pool.check:
            pool.check.require(
                not self.failed and not self.conn.closed,
                "pool:issue_on_dead_connection",
                "fetch issued on a torn-down connection",
                time_ms=now,
                url=fetch.url,
                host=self.host,
            )
            pool.check.require(
                self.established or self.conn.zero_rtt,
                "pool:issue_before_established",
                "fetch issued before the connection was usable",
                time_ms=now,
                url=fetch.url,
                host=self.host,
            )
        faults = pool.faults
        if faults is not None and faults.edge_outage(server.hostname):
            # The edge refuses the request; the refusal arrives one RTT
            # later and the fetch retries with backoff (the outage
            # window may have lifted by then).
            faults.record_fault("edge_outage", server.hostname)
            pool.loop.call_later(
                self.conn.path.rtt_ms, pool._retry_or_fail, [fetch], "edge_outage"
            )
            return
        decision = pool._serve(fetch)
        #: Bytes actually on the wire: compression campaigns egress the
        #: negotiated encoding's size, everything else the nominal size.
        body_bytes = decision.body_bytes
        if body_bytes is None:
            body_bytes = fetch.response_bytes
        think_ms = decision.think_ms
        timing = EntryTiming()
        if ssl_ms is None:
            timing.blocked = now - fetch.queued_at
        else:
            # Connection-opening request: the server pays the TLS setup
            # CPU (certificate crypto on full handshakes, much less on
            # resumed ones) before processing the request.
            if self.resumed:
                think_ms += server.resumed_setup_cpu_ms
            else:
                think_ms += server.tls_setup_cpu_ms
            # Time spent waiting for a handshake slot is "blocked"; the
            # handshake itself is "connect".
            timing.blocked = self.connect_started_at - fetch.queued_at
            timing.connect = self.conn.handshake.connect_ms
            timing.ssl = ssl_ms
        fetch.entry = HarEntry(
            url=fetch.url,
            # The request's own hostname (a coalesced connection serves
            # several hosts; HAR entries keep the per-request host).
            host=server.hostname,
            protocol=fetch.protocol._value_,
            timings=timing,
            response_bytes=body_bytes,
            request_bytes=fetch.request_bytes,
            headers=dict(decision.headers),
            reused=ssl_ms is None,
            resumed=self.resumed,
            cache_hit=decision.cache_hit,
        )
        self.inflight.append(fetch)
        fetch.pooled = self
        fetch.issued_at = now
        spans = pool._spans
        fetch.request_span = None if spans is None else spans.begin(
            "phase", f"request:{fetch.url}", now, parent=spans.current_visit
        )
        fetch.transfer_span = None
        if faults is not None:
            fetch.timer = pool.loop.call_later(
                faults.retry.request_timeout_ms, self.on_request_timeout, fetch
            )
        self.conn.request(
            fetch.request_bytes,
            body_bytes,
            think_ms=think_ms,
            on_first_byte=fetch.on_first_byte,
            on_complete=fetch.on_stream_complete,
        )

    def drain_h1(self) -> None:
        """Issue the next fetch queued at this idle H1 connection's host."""
        if self.inflight:
            return
        queue = self.pool._h1_queues.get(self.host)
        if queue:
            self.issue(queue.popleft())

    # -- fault recovery ------------------------------------------------

    def on_connect_timeout(self, error=None) -> None:
        """The handshake deadline expired (or the transport gave up)."""
        pool = self.pool
        if pool._closed or self.failed or self.established:
            return
        faults = pool.faults
        pool.stats.connect_timeouts += 1
        # Attribute the timeout to its scripted cause so the fault:
        # event family reflects what actually ate the packets.
        if faults.blackout(self.host):
            faults.record_fault("blackout", self.host)
        elif self.protocol is _H3 and faults.udp_blackholed(self.host):
            faults.record_fault("udp_blackhole", self.host)
        faults.record_recovery(
            "connect_timeout", self.host, protocol=self.protocol.value
        )
        self.fail("connect_timeout", kind="connect_retry")

    def on_reset(self) -> None:
        """A scripted ``connection_reset`` window opened on a live conn."""
        pool = self.pool
        if pool._closed or self.failed or not self.established:
            return
        pool.stats.connection_resets += 1
        pool.faults.record_fault(
            "connection_reset", self.host, streams=len(self.inflight)
        )
        self.fail("connection_reset")

    def on_migration(self, kind: str) -> None:
        """The vantage's address changed under a live connection.

        QUIC is identified by connection ID, not by 4-tuple: the
        connection survives the change (packets lost in the rebind gap
        recover by PTO once the new path carries traffic).  TCP *is*
        its 4-tuple — the old connection is dead on arrival of the new
        address, and every stream it carried reconnects from scratch.
        """
        pool = self.pool
        if pool._closed or self.failed or not self.established:
            return
        self.migration_event = None
        faults = pool.faults
        streams = len(self.inflight)
        faults.record_fault(kind, self.host, streams=streams)
        if self.protocol is _H3:
            pool.stats.quic_migrations += 1
            faults.record_migration(
                self.host, migrated=True,
                protocol=self.protocol.value, streams=streams,
            )
            self.conn.on_path_migration()
            return
        pool.stats.migration_reconnects += 1
        faults.record_migration(
            self.host, migrated=False,
            protocol=self.protocol.value, streams=streams,
        )
        self.fail("migration")

    def on_transport_error(self, error) -> None:
        """The transport exhausted its own retry budget mid-request."""
        if self.pool._closed or self.failed:
            return
        self.pool.faults.record_recovery(
            "request_timeout", self.host, reason="transport_error"
        )
        self.fail("transport_error")

    def on_request_timeout(self, fetch: Fetch) -> None:
        """A single request sat in flight past the request deadline.

        The whole connection is treated as dead (a stuck stream means
        the path or peer is gone); every sibling stream re-dispatches.
        """
        if self.pool._closed or self.failed:
            return
        self.pool.faults.record_recovery("request_timeout", fetch.server.hostname)
        self.fail("request_timeout")

    def fail(self, reason: str, kind: str = "request_retry") -> None:
        """Tear the connection down and re-dispatch everything it carried.

        Its fetches, those in flight and then those waiting (the opener
        first), retry on the same protocol with ``kind``, unless an H3
        connection died of anything but a reset.
        """
        pool = self.pool
        self.failed = True
        self.close()
        pool._release_handshake_slot(self)
        lane = pool._lanes[self.lane_key]
        lane.remove(self)
        if not lane and self.protocol is not _H1:
            # An emptied H2/H3 lane leaves the table, so a connection
            # that reopens it closes after every lane opened before it;
            # H1 lanes keep their place by host (``close`` relies on
            # both).
            del pool._lanes[self.lane_key]
        orphans = [*self.inflight, *self.pending]
        self.inflight.clear()
        self.pending.clear()
        if self.protocol is _H3 and reason != "connection_reset":
            # A QUIC connection that died of timeouts points at a
            # UDP-hostile path: the whole coalesce group falls back to
            # TCP.  Resets hit TCP just as hard, so they retry on H3.
            pool._h3_broken_keys.add(self.lane_key[0])
            if pool.alt_svc is not None:
                pool.alt_svc.mark_h3_broken(self.host, pool.loop.now)
            pool.stats.h3_fallbacks += 1
            pool.faults.record_recovery(
                "h3_fallback", self.host, orphaned=len(orphans)
            )
            for fetch in orphans:
                fetch.protocol = pool._tcp_protocol(fetch.server)
                pool._dispatch(fetch)
        else:
            pool._retry_or_fail(orphans, reason, kind)

    def close(self) -> None:
        """Cancel the connection's deadlines and events, then close it.

        The loop outlives the pool (one loop per probe, one pool per
        visit), so anything left pending would fire into a later visit.
        """
        for event in (self.connect_timer, self.reset_event, self.migration_event):
            if event is not None:
                event.cancel()
        self.connect_timer = self.reset_event = self.migration_event = None
        for fetch in self.inflight:
            if fetch.timer is not None:
                fetch.timer.cancel()
                fetch.timer = None
        self.conn.close()


class ConnectionPool:
    """Connection pool for one browser profile.

    The pool is created fresh for every page visit ("all connections
    are terminated" between visits, Section III-B); the session-ticket
    cache passed in may outlive it (consecutive-visit mode).
    """

    H1_MAX_PER_HOST = 6

    def __init__(
        self,
        loop: EventLoop,
        session_cache: SessionTicketCache | None = None,
        transport_config: TransportConfig | None = None,
        rng: random.Random | None = None,
        use_session_tickets: bool = True,
        obs=None,
        faults: "FaultInjector | None" = None,
        alt_svc: "AltSvcCache | None" = None,
        check=None,
        proxy_cache=None,
    ) -> None:
        self.loop = loop
        #: Invariant checker (strict mode); the falsy null check keeps
        #: every ``if self.check:`` guard a single bool test.
        self.check = check if check is not None else NULL_CHECK
        self.session_cache = session_cache if session_cache is not None else SessionTicketCache()
        self.transport_config = transport_config or TransportConfig()
        self.rng = rng or random.Random(0)
        self.use_session_tickets = use_session_tickets
        #: Optional :class:`repro.obs.ObsContext`; supplies per-connection
        #: tracers/samplers and receives pool/transport counters at
        #: teardown.
        self.obs = obs
        #: Span recorder for the current visit (pools are per-visit, so
        #: caching the recorder here is safe), or None when spans are off.
        self._spans = obs.spans if obs is not None else None
        #: Optional :class:`repro.faults.FaultInjector`.  ``None`` keeps
        #: every recovery hook dormant — no timers, no path wrapping, no
        #: extra bookkeeping — so fault-free runs stay bit-identical.
        self.faults = faults
        #: The browser's Alt-Svc cache; H3 connect failures demote the
        #: opener's host here so later visits skip straight to TCP.
        self.alt_svc = alt_svc
        #: Coalesce keys whose H3 lane is dead for this pool's lifetime.
        self._h3_broken_keys: set[str] = set()
        #: Coalesce keys whose H3 attempt a TCP-only proxy already
        #: downgraded (count/trace once per would-be QUIC connection).
        self._proxy_downgraded_keys: set[str] = set()
        self.stats = PoolStats()
        #: The connection table: one lane per ``(coalesce_key, "h2"|"h3")``
        #: with that group's one multiplexed connection, and one per
        #: ``(host, "http/1.1")`` with up to ``H1_MAX_PER_HOST``.
        self._lanes: dict[tuple[str, str], list[_PooledConnection]] = {}
        #: H1 fetches waiting for one of their host's connections.
        self._h1_queues: dict[str, deque[Fetch]] = {}
        # Handshake throttling: browsers bound concurrent connection
        # setups; extra connections queue here (0-RTT bypasses the queue).
        self._active_handshakes = 0
        self._handshake_queue: deque[_PooledConnection] = deque()
        #: Farm-owned proxy-side response cache (connect-tunnel proxies
        #: with ``cache_mb`` only); outlives this per-visit pool.
        self._proxy_cache = proxy_cache
        #: Lazy :class:`repro.cdn.economics.EconomicsLedger`; created on
        #: the first ServeDecision that carries an economics delta, so
        #: legacy campaigns never touch it.
        self._economics = None
        self._closed = False

    # ------------------------------------------------------------------

    def fetch(self, fetch: Fetch) -> None:
        """Dispatch one request; the pool calls ``fetch.complete`` with
        its HAR entry when the response lands or the fetch gives up."""
        if self._closed:
            raise RuntimeError("pool is closed")
        self.stats.requests += 1
        fetch.queued_at = self.loop.now
        fetch.attempts = 0
        fetch.timer = None
        self._dispatch(fetch)

    def _dispatch(self, fetch: Fetch) -> None:
        """Settle a fetch's protocol, then issue, open or park it in its lane.

        H3 falls back to TCP when a CONNECT tunnel on the path cannot
        carry QUIC, or when the coalesce group's QUIC lane already
        failed.  An idle established connection takes the fetch as a
        reused request; a lane below its limit (one H2/H3 connection,
        six H1) opens one with the fetch as its opener.  Otherwise an
        H2/H3 fetch waits on the handshaking connection and an H1 fetch
        queues at its host; both ride it as reused requests.  Fault
        recovery re-enters here after retries and H3 demotion.
        """
        if self._closed:
            return
        server = fetch.server
        if fetch.protocol is _H3:
            if not fetch.path.h3_passthrough:
                # A CONNECT-style tunnel only relays TCP byte streams.
                self._proxy_downgrade_h3(fetch)
            elif (
                self.faults is not None
                and server.coalesce_key in self._h3_broken_keys
            ):
                # Route straight to TCP instead of re-proving the blackhole.
                fetch.protocol = self._tcp_protocol(server)
        protocol = fetch.protocol
        multiplexes = protocol is not _H1
        key = (
            server.coalesce_key if multiplexes else server.hostname,
            protocol._value_,
        )
        lane = self._lanes.setdefault(key, [])
        for pooled in lane:
            # An H1.1 connection serves one request at a time.
            if pooled.established and (multiplexes or not pooled.inflight):
                pooled.issue(fetch)
                return
        if len(lane) < (1 if multiplexes else self.H1_MAX_PER_HOST):
            lane.append(self._open_connection(fetch, key))
        elif multiplexes:
            lane[0].pending.append(fetch)
        else:
            self._h1_queues.setdefault(server.hostname, deque()).append(fetch)

    @staticmethod
    def _tcp_protocol(server: Server) -> HttpProtocol:
        """Where an H3 fetch falls back to: H2, or H1 without h2."""
        return HttpProtocol.H2 if server.supports_h2 else HttpProtocol.H1

    def _proxy_downgrade_h3(self, fetch: Fetch) -> None:
        """Reroute one H3 fetch to TCP at a non-UDP-capable proxy."""
        fetch.protocol = self._tcp_protocol(fetch.server)
        key = fetch.server.coalesce_key
        if key in self._proxy_downgraded_keys:
            return
        # First H3 attempt for this coalesce group: account for the
        # one QUIC connection the proxy refused to carry.
        self._proxy_downgraded_keys.add(key)
        self.stats.proxy_h3_downgrades += 1
        if self.obs is not None:
            self.obs.counters.incr("proxy.h3_downgrades")
            tracer = self.obs.fault_tracer()
            if tracer:
                tracer.event(
                    self.loop.now,
                    "proxy:h3_downgrade",
                    host=fetch.server.hostname,
                    model=fetch.path.proxy_model or "connect-tunnel",
                )

    # ------------------------------------------------------------------

    def _open_connection(
        self, opener: Fetch, lane_key: tuple[str, str]
    ) -> _PooledConnection:
        host = opener.server.hostname
        path = opener.path
        quic = opener.protocol is _H3
        conn_rng = random.Random(self.rng.getrandbits(64))
        conn_name = f"h3-{host}" if quic else f"tcp-{host}"
        tracer = (
            self.obs.connection_tracer(conn_name, opener.protocol.value)
            if self.obs is not None
            else None
        )
        has_ticket = False
        if self.use_session_tickets:
            ticket = self.session_cache.lookup(host, self.loop.now)
            if ticket is not None:
                # The server may reject the ticket (key rotation, a
                # different machine behind the load balancer): the
                # connection then falls back to a full handshake.
                has_ticket = conn_rng.random() < opener.server.resumption_rate
            if (
                has_ticket
                and self.faults is not None
                and self.faults.zero_rtt_rejected(host)
            ):
                # Scripted key rotation: the server refuses resumption;
                # the connection pays a full handshake instead.
                has_ticket = False
                self.faults.record_fault("zero_rtt_reject", host)
            if tracer:
                if has_ticket:
                    tracer.event(
                        self.loop.now, "security:session_ticket_hit", host=host
                    )
                elif ticket is not None:
                    tracer.event(
                        self.loop.now, "security:session_ticket_rejected", host=host
                    )
                else:
                    tracer.event(
                        self.loop.now, "security:session_ticket_miss", host=host
                    )
            if ticket is not None and not has_ticket and self.obs is not None:
                self.obs.counters.incr("tls.tickets.rejected")
        sampler = (
            self.obs.connection_sampler(conn_name, opener.protocol.value)
            if self.obs is not None
            else None
        )
        if sampler is not None:
            # Link samplers go on the *unwrapped* path: a fault wrapper
            # proxies the same underlying links, and attachment must
            # survive re-wrapping across retries.
            self.obs.attach_link_sampler(path.downlink)
            self.obs.attach_link_sampler(path.uplink)
        if self.faults is not None:
            # Per-connection fault view: blackouts drop everything, UDP
            # blackholes drop only QUIC packets.
            path = self.faults.wrap_path(path, host, quic=quic)
        if quic:
            if tracer and has_ticket:
                tracer.event(self.loop.now, "security:zero_rtt_accepted", host=host)
            conn: BaseConnection = QuicConnection(
                self.loop, path, config=self.transport_config,
                rng=conn_rng, resumed=has_ticket, name=conn_name,
                tracer=tracer, check=self.check or None, sampler=sampler,
            )
        else:
            conn = TcpConnection(
                self.loop, path, config=self.transport_config,
                rng=conn_rng, resumed=has_ticket,
                tls_version=opener.server.tls_version, name=conn_name,
                tracer=tracer, check=self.check or None, sampler=sampler,
            )
        pooled = _PooledConnection(self, conn, lane_key, has_ticket, opener)
        self.stats.connections_created += 1
        if has_ticket:
            self.stats.resumed_connections += 1
        # 0-RTT resumed QUIC needs no handshake round trip: it bypasses
        # the browser's handshake throttle.  Everything else competes
        # for a bounded number of concurrent setups.
        zero_rtt = has_ticket and quic
        max_handshakes = self.transport_config.max_concurrent_handshakes
        if zero_rtt or self._active_handshakes < max_handshakes:
            pooled.connect(counted=not zero_rtt)
        else:
            self._handshake_queue.append(pooled)
        return pooled

    def _release_handshake_slot(self, pooled: _PooledConnection) -> None:
        """Free the handshake-throttle slot and drain the queue."""
        if not pooled.handshake_counted:
            return
        pooled.handshake_counted = False
        self._active_handshakes -= 1
        if self.check:
            self.check.require(
                self._active_handshakes >= 0,
                "pool:handshake_slots_balanced",
                "released more handshake slots than were taken",
                time_ms=self.loop.now,
                active=self._active_handshakes,
            )
        max_handshakes = self.transport_config.max_concurrent_handshakes
        while self._handshake_queue and self._active_handshakes < max_handshakes:
            self._handshake_queue.popleft().connect()

    # -- fault recovery ------------------------------------------------

    def _retry_or_fail(
        self,
        fetches: list[Fetch],
        reason: str,
        kind: str = "request_retry",
    ) -> None:
        """Back off and re-dispatch, or give up once retries run out."""
        policy = self.faults.retry
        for fetch in fetches:
            host = fetch.server.hostname
            if fetch.attempts < policy.max_retries:
                delay = policy.backoff_ms(fetch.attempts)
                fetch.attempts += 1
                self.stats.retried_requests += 1
                self.faults.record_recovery(
                    kind, host, attempt=fetch.attempts, delay_ms=delay
                )
                self.loop.call_later(delay, self._dispatch, fetch)
            else:
                self._fail_fetch(fetch, reason)

    def _fail_fetch(self, fetch: Fetch, reason: str) -> None:
        """Out of retries: complete the fetch with a structured failure.

        The browser still receives an entry (``failed=True``), so the
        page visit terminates normally instead of hanging the loop —
        campaign-level graceful degradation builds on this.
        """
        self.stats.failed_requests += 1
        self.faults.record_recovery(
            "request_failed", fetch.server.hostname, reason=reason
        )
        entry = HarEntry.failure(
            fetch.url,
            fetch.server.hostname,
            fetch.protocol._value_,
            fetch.queued_at,
            fetch.request_bytes,
            self.loop.now,
        )
        if fetch.protocol is _H1:
            # Queued H1 fetches wait for a connection of their host to
            # free up, and this fetch's may have been the last one:
            # dispatch them again, each on its own retry budget.  A full
            # lane of busy connections queues them again in order.
            for queued in self._h1_queues.pop(fetch.server.hostname, ()):
                self._dispatch(queued)
        fetch.complete(entry)

    def _serve(self, fetch: Fetch):
        """Answer one fetch: proxy cache first, then the server.

        A TCP-terminating CONNECT tunnel sees plaintext-sized responses
        it already forwarded and can replay them without touching the
        edge; a MASQUE relay never can (end-to-end QUIC is opaque), so
        caching is gated on the path's proxy model, not just on having
        a cache.  Economics deltas and cache-tier traces are folded in
        here so ``issue`` stays shape-identical for legacy campaigns.
        """
        cacheable = (
            self._proxy_cache is not None
            and fetch.path.proxy_model == "connect-tunnel"
        )
        if cacheable and self._proxy_cache.lookup(fetch.url):
            from repro.cdn.edge import ServeDecision

            self.stats.proxy_cache_hits += 1
            return ServeDecision(
                cache_hit=True,
                think_ms=0.0,
                protocol=fetch.protocol._value_,
                headers=_PROXY_HIT_HEADERS,
            )
        decision = fetch.server.serve(
            fetch.url,
            fetch.response_bytes,
            fetch.protocol._value_,
            fetch.accept_encoding,
            fetch.rtype,
        )
        if cacheable:
            body = decision.body_bytes
            self._proxy_cache.insert(
                fetch.url, fetch.response_bytes if body is None else body
            )
        economics = decision.economics
        if economics is not None:
            if self._economics is None:
                from repro.cdn.economics import EconomicsLedger

                self._economics = EconomicsLedger()
            self._economics.add(economics, decision.hit_tier)
            if self.obs is not None and decision.hit_tier is not None:
                tracer = self.obs.cdn_tracer()
                if tracer:
                    now = self.loop.now
                    host = fetch.server.hostname
                    if decision.hit_tier == "origin":
                        tracer.event(now, "cache:miss", host=host)
                    else:
                        tracer.event(
                            now, "cache:hit", host=host, tier=decision.hit_tier
                        )
                    tracer.event(
                        now,
                        "economics:egress",
                        host=host,
                        bytes=economics.egress_bytes,
                        encoding=decision.headers.get(
                            "content-encoding", "identity"
                        ),
                        source="cache" if economics.cache_served_bytes else "fetch",
                    )
                    if economics.origin_bytes:
                        tracer.event(
                            now,
                            "economics:origin_fetch",
                            host=host,
                            bytes=economics.origin_bytes,
                        )
        return decision

    # ------------------------------------------------------------------

    def connection_count(self) -> int:
        """Live connections (diagnostics)."""
        return sum(len(lane) for lane in self._lanes.values())

    def close(self) -> None:
        """Terminate every connection (between page visits).

        With observability attached, this is also where per-connection
        transport stats and the pool's own counters are folded into the
        registry — a cold path, so packet accounting never slows down.
        """
        self._closed = True
        # Multiplexed lanes first, then H1 by host: the order in which
        # connections close and fold their stats into the counters.
        all_conns = [
            pooled
            for h1 in (False, True)
            for (_, protocol), lane in self._lanes.items()
            if (protocol == _H1._value_) is h1
            for pooled in lane
        ]
        if self.check:
            counted = sum(1 for pooled in all_conns if pooled.handshake_counted)
            self.check.require(
                self._active_handshakes == counted,
                "pool:handshake_slots_balanced",
                "handshake slot count drifted from slot-holding connections",
                time_ms=self.loop.now,
                active=self._active_handshakes,
                holders=counted,
            )
            if self.faults is None:
                # Fault-free visits end only when every fetch completed:
                # nothing may still be queued, in flight, or handshaking.
                self.check.require(
                    self._active_handshakes == 0
                    and not self._handshake_queue
                    and all(
                        not pooled.inflight and not pooled.pending
                        for pooled in all_conns
                    )
                    and not any(self._h1_queues.values()),
                    "pool:drained_at_close",
                    "pool closed with work still outstanding "
                    "in a fault-free visit",
                    time_ms=self.loop.now,
                )
                self.check.require(
                    self.stats.requests
                    == self.stats.connections_created + self.stats.reused_requests,
                    "pool:request_accounting",
                    "requests != connections_created + reused_requests "
                    "in a fault-free visit",
                    time_ms=self.loop.now,
                    requests=self.stats.requests,
                    connections_created=self.stats.connections_created,
                    reused_requests=self.stats.reused_requests,
                )
            else:
                # Each request completes or fails at most once, however
                # often fault recovery re-dispatched it.
                self.check.require(
                    self.stats.reused_requests + self.stats.failed_requests
                    <= self.stats.requests,
                    "pool:request_accounting",
                    "reused_requests + failed_requests > requests",
                    time_ms=self.loop.now,
                    requests=self.stats.requests,
                    reused_requests=self.stats.reused_requests,
                    failed_requests=self.stats.failed_requests,
                )
            if self._economics is not None:
                # Byte conservation: every egressed byte was either
                # served from a cache tier or fetched through the
                # hierarchy — exact by construction, so any drift is a
                # bookkeeping bug.
                self.check.require(
                    self._economics.conserved,
                    "pool:economics_conserved",
                    "egress bytes != cache-served + inter-tier transfer",
                    time_ms=self.loop.now,
                    egress=self._economics.egress_bytes,
                    cache_served=self._economics.cache_served_bytes,
                    transfer=self._economics.transfer_bytes,
                )
        for pooled in all_conns:
            pooled.close()
        if self.obs is not None:
            for pooled in all_conns:
                self.obs.absorb_connection(pooled.conn)
            counters = self.obs.counters
            for name, value in self.stats._serialized():
                counters.incr(f"pool.{name}", value)
            if self._economics is not None:
                # Hierarchy/compression campaigns only; nonzero-only so
                # legacy counter snapshots stay byte-identical.
                for key, value in self._economics.counter_items():
                    counters.incr(key, value)
        self._lanes.clear()
        self._h1_queues.clear()
