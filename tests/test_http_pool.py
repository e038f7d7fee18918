"""Tests for the HTTP connection pool: reuse, resumption, H1 queueing."""

import random
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdn import EdgeServer, OriginServer, get_provider
from repro.events import EventLoop
from repro.http import ConnectionPool, HttpProtocol, PoolStats
from repro.http.pool import Fetch
from repro.netsim import NetemProfile, NetworkPath
from repro.tls import SessionTicketCache

RTT = 30.0


@pytest.fixture()
def loop():
    return EventLoop()


def make_path(loop):
    return NetworkPath(loop, NetemProfile(delay_ms=RTT / 2, rate_mbps=None),
                       rng=random.Random(0))


def make_edge(hostname="cdnjs.cloudflare.com", **kwargs):
    kwargs.setdefault("base_think_ms", 10.0)
    kwargs.setdefault("origin_fetch_ms", 50.0)
    # Deterministic resumption in unit tests (the default 0.75 models
    # ticket-key rotation across a load-balanced fleet).
    kwargs.setdefault("resumption_rate", 1.0)
    return EdgeServer(hostname, get_provider("cloudflare"), **kwargs)


class CallbackFetch(Fetch):
    """A bare request: its entry goes to ``on_complete``."""

    __slots__ = ("on_complete",)

    def complete(self, entry):
        self.on_complete(entry)


def fetch_one(pool, server, path, protocol, url, request_bytes, response_bytes,
              on_complete):
    """Hand ``pool`` one request; ``on_complete`` receives its entry."""
    fetch = CallbackFetch()
    fetch.server, fetch.path, fetch.protocol, fetch.url = server, path, protocol, url
    fetch.request_bytes, fetch.response_bytes = request_bytes, response_bytes
    fetch.accept_encoding = fetch.rtype = None
    fetch.on_complete = on_complete
    pool.fetch(fetch)
    return fetch


def fetch_all(pool, loop, server, path, protocol, n, response_bytes=5000):
    records = []
    for i in range(n):
        fetch_one(pool, server, path, protocol, f"https://{server.hostname}/r{i}",
                  400, response_bytes, records.append)
    loop.run_until(lambda: len(records) == n)
    return records


class TestMultiplexedReuse:
    def test_single_connection_for_many_requests(self, loop):
        pool = ConnectionPool(loop)
        server, path = make_edge(), make_path(loop)
        records = fetch_all(pool, loop, server, path, HttpProtocol.H2, 5)
        assert pool.stats.connections_created == 1
        assert pool.stats.reused_requests == 4
        openers = [r for r in records if not r.reused]
        assert len(openers) == 1
        assert openers[0].timings.connect > 0

    def test_reused_requests_have_zero_connect(self, loop):
        """The paper's reuse criterion: connect time == 0."""
        pool = ConnectionPool(loop)
        records = fetch_all(pool, loop, make_edge(), make_path(loop), HttpProtocol.H2, 4)
        reused = [r for r in records if r.reused]
        assert len(reused) == 3
        for record in reused:
            assert record.timings.connect == 0.0

    def test_h2_and_h3_use_separate_connections(self, loop):
        pool = ConnectionPool(loop)
        server, path = make_edge(), make_path(loop)
        fetch_all(pool, loop, server, path, HttpProtocol.H2, 2)
        fetch_all(pool, loop, server, path, HttpProtocol.H3, 2)
        assert pool.stats.connections_created == 2

    def test_h3_connect_faster_than_h2(self, loop):
        # Separate pools with separate ticket caches: both handshakes
        # are full (a shared cache would legitimately let H3 resume).
        server, path = make_edge(), make_path(loop)
        pool_h2 = ConnectionPool(loop, session_cache=SessionTicketCache())
        pool_h3 = ConnectionPool(loop, session_cache=SessionTicketCache())
        (h2_opener,) = fetch_all(pool_h2, loop, server, path, HttpProtocol.H2, 1)
        (h3_opener,) = fetch_all(pool_h3, loop, server, path, HttpProtocol.H3, 1)
        # TLS1.3: H2 pays 2 RTT, H3 pays 1 RTT.
        assert h2_opener.timings.connect == pytest.approx(2 * RTT)
        assert h3_opener.timings.connect == pytest.approx(RTT)

    def test_requests_during_handshake_wait_and_report_blocked(self, loop):
        pool = ConnectionPool(loop)
        server, path = make_edge(), make_path(loop)
        records = []
        for i in range(3):
            fetch_one(pool, server, path, HttpProtocol.H2, f"https://x/r{i}", 400,
                      2000, records.append)
        loop.run_until(lambda: len(records) == 3)
        followers = [r for r in records if r.reused]
        assert len(followers) == 2
        for record in followers:
            assert record.timings.blocked == pytest.approx(2 * RTT)  # handshake wait


class TestSessionResumption:
    def test_ticket_stored_after_handshake(self, loop):
        cache = SessionTicketCache()
        pool = ConnectionPool(loop, session_cache=cache)
        server, path = make_edge(), make_path(loop)
        fetch_all(pool, loop, server, path, HttpProtocol.H3, 1)
        assert server.hostname in cache

    def test_second_pool_resumes_with_zero_rtt(self, loop):
        """Fresh pool (new page), same ticket cache: H3 resumes 0-RTT."""
        cache = SessionTicketCache()
        server, path = make_edge(), make_path(loop)
        pool1 = ConnectionPool(loop, session_cache=cache)
        fetch_all(pool1, loop, server, path, HttpProtocol.H3, 1)
        pool1.close()
        pool2 = ConnectionPool(loop, session_cache=cache)
        records = fetch_all(pool2, loop, server, path, HttpProtocol.H3, 1)
        assert records[0].resumed
        assert records[0].timings.connect == 0.0
        assert pool2.stats.resumed_connections == 1
        assert pool2.stats.zero_rtt_connections == 1

    def test_h2_resumption_saves_no_round_trip(self, loop):
        """Resumed H2 still pays TCP + TLS1.3 round trips (browsers
        send no TCP early data); only H3 resumption removes latency —
        the paper's Section VI-D asymmetry."""
        cache = SessionTicketCache()
        server, path = make_edge(), make_path(loop)
        pool1 = ConnectionPool(loop, session_cache=cache)
        fetch_all(pool1, loop, server, path, HttpProtocol.H2, 1)
        pool1.close()
        pool2 = ConnectionPool(loop, session_cache=cache)
        records = fetch_all(pool2, loop, server, path, HttpProtocol.H2, 1)
        assert records[0].resumed
        assert records[0].timings.connect == pytest.approx(2 * RTT)

    def test_tickets_disabled_never_resumes(self, loop):
        cache = SessionTicketCache()
        server, path = make_edge(), make_path(loop)
        pool1 = ConnectionPool(loop, session_cache=cache, use_session_tickets=False)
        fetch_all(pool1, loop, server, path, HttpProtocol.H3, 1)
        assert server.hostname not in cache
        pool2 = ConnectionPool(loop, session_cache=cache, use_session_tickets=False)
        records = fetch_all(pool2, loop, server, path, HttpProtocol.H3, 1)
        assert not records[0].resumed

    def test_server_without_tickets_never_stores(self, loop):
        cache = SessionTicketCache()
        server = make_edge(issues_tickets=False)
        pool = ConnectionPool(loop, session_cache=cache)
        fetch_all(pool, loop, server, make_path(loop), HttpProtocol.H3, 1)
        assert server.hostname not in cache


class TestH1Semantics:
    def test_h1_opens_parallel_connections_up_to_six(self, loop):
        origin = OriginServer("old.example.com", supports_h2=False, base_think_ms=10.0)
        pool = ConnectionPool(loop)
        path = make_path(loop)
        fetch_all(pool, loop, origin, path, HttpProtocol.H1, 8)
        assert pool.stats.connections_created == 6
        assert pool.stats.reused_requests == 2

    def test_h1_serializes_per_connection(self, loop):
        origin = OriginServer("old.example.com", supports_h2=False, base_think_ms=10.0)
        pool = ConnectionPool(loop)
        path = make_path(loop)
        records = fetch_all(pool, loop, origin, path, HttpProtocol.H1, 7)
        # The 7th request had to wait for one of the six connections.
        queued = [r for r in records if r.reused]
        assert len(queued) == 1
        assert queued[0].timings.blocked > 0

    def test_h1_reuses_idle_connection(self, loop):
        origin = OriginServer("old.example.com", supports_h2=False, base_think_ms=5.0)
        pool = ConnectionPool(loop)
        path = make_path(loop)
        fetch_all(pool, loop, origin, path, HttpProtocol.H1, 1)
        records = fetch_all(pool, loop, origin, path, HttpProtocol.H1, 1)
        assert pool.stats.connections_created == 1
        assert records[0].reused


class TestPoolLifecycle:
    def test_cache_hit_flag_propagates(self, loop):
        server, path = make_edge(), make_path(loop)
        server.warm("https://cdnjs.cloudflare.com/r0", 5000)
        pool = ConnectionPool(loop)
        records = fetch_all(pool, loop, server, path, HttpProtocol.H2, 1)
        assert records[0].cache_hit

    def test_wait_time_includes_think(self, loop):
        server = make_edge(base_think_ms=25.0, tls_setup_cpu_ms=0.0)
        server.warm("https://cdnjs.cloudflare.com/r0", 5000)
        pool = ConnectionPool(loop)
        records = fetch_all(pool, loop, server, make_path(loop), HttpProtocol.H2, 1)
        assert records[0].timings.wait == pytest.approx(RTT + 25.0)

    def test_opener_wait_includes_tls_setup_cpu(self, loop):
        server = make_edge(base_think_ms=25.0, tls_setup_cpu_ms=9.0)
        server.warm("https://cdnjs.cloudflare.com/r0", 5000)
        server.warm("https://cdnjs.cloudflare.com/r1", 5000)
        pool = ConnectionPool(loop)
        records = fetch_all(pool, loop, server, make_path(loop), HttpProtocol.H2, 2)
        opener = [r for r in records if not r.reused][0]
        follower = [r for r in records if r.reused][0]
        assert opener.timings.wait == pytest.approx(RTT + 25.0 + 9.0)
        assert follower.timings.wait == pytest.approx(RTT + 25.0)

    def test_closed_pool_rejects_fetches(self, loop):
        pool = ConnectionPool(loop)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            fetch_one(pool, make_edge(), make_path(loop), HttpProtocol.H2,
                      "https://x/", 400, 100, lambda r: None)

    def test_stats_merge(self, loop):
        from repro.http import PoolStats

        a = PoolStats(requests=2, connections_created=1)
        b = PoolStats(requests=3, reused_requests=2)
        merged = a.merged_with(b)
        assert merged.requests == 5
        assert merged.connections_created == 1
        assert merged.reused_requests == 2


#: Wire names of the ``PoolStats`` fields, in field order.
WIRE_NAMES = [
    "requests", "connectionsCreated", "resumedConnections", "reusedRequests",
    "zeroRttConnections", "failedRequests", "retriedRequests", "h3Fallbacks",
    "connectTimeouts", "connectionResets", "quicMigrations",
    "migrationReconnects", "proxyH3Downgrades", "proxyCacheHits",
]
#: The pre-fault keys every payload carries, zero or not.
LEGACY_KEYS = WIRE_NAMES[:5]

pool_stats = st.builds(
    PoolStats,
    **{f.name: st.integers(min_value=0, max_value=10**9) for f in fields(PoolStats)},
)


class _Counters:
    def __init__(self):
        self.calls = []

    def incr(self, key, value=1):
        self.calls.append((key, value))


class _Obs:
    """Just enough of ``ObsContext`` for ``ConnectionPool.close``."""

    spans = None

    def __init__(self):
        self.counters = _Counters()

    def absorb_connection(self, conn):
        pass


class TestPoolStatsSerialization:
    def test_fields_match_the_wire_names(self):
        assert len(fields(PoolStats)) == len(WIRE_NAMES) == 14

    @given(pool_stats)
    def test_round_trip_and_key_order(self, stats):
        payload = stats.to_dict()
        assert PoolStats.from_dict(payload) == stats
        values = [getattr(stats, f.name) for f in fields(PoolStats)]
        assert list(payload) == [
            wire for wire, value in zip(WIRE_NAMES, values)
            if wire in LEGACY_KEYS or value
        ]

    def test_default_has_exactly_the_legacy_keys(self):
        assert PoolStats().to_dict() == dict.fromkeys(LEGACY_KEYS, 0)
        assert PoolStats.from_dict({}) == PoolStats()

    @given(pool_stats)
    def test_close_counts_pool_fields(self, stats):
        obs = _Obs()
        pool = ConnectionPool(EventLoop(), obs=obs)
        pool.stats = stats
        pool.close()
        assert obs.counters.calls == [
            (f"pool.{f.name}", getattr(stats, f.name))
            for index, f in enumerate(fields(PoolStats))
            if index < len(LEGACY_KEYS) or getattr(stats, f.name)
        ]
