"""State-machine tests for the connection pool's lanes.

Each test drives a pool step by step and, after every step, compares an
exact snapshot of every live connection with a literal: the lane it
sits in, its protocol, whether it is established, its active streams,
the requests issued on it and the fetches waiting on it.  H1 overflow
queues and the handshake throttle are listed after the connections.

Only :func:`snapshot` reads pool internals; the literals pin behaviour.
"""

import random

from repro.cdn import OriginServer
from repro.check.context import CheckContext
from repro.events import EventLoop
from repro.faults import FaultInjector
from repro.faults.profile import FaultEvent, FaultProfile, RetryPolicy
from repro.http import ConnectionPool, HttpProtocol
from repro.netsim import NetemProfile
from repro.netsim.proxy import SegmentedPath
from repro.obs import ObsContext
from repro.tls import SessionTicketCache
from repro.transport import TransportConfig
from tests.test_http_pool import fetch_one, make_edge, make_path


def snapshot(pool):
    """Live connections in teardown order, then queues and throttle.

    Teardown order is the multiplexed lanes first, then the H1 lanes
    by host.  A connection reads ``lane protocol state active issued
    pending``; ``issued`` counts the streams opened on its transport and
    ``pending`` the fetches waiting on its handshake besides its opener
    (which heads ``pooled.pending`` until the connection is established).
    """
    lanes = [
        ((key, protocol), lane)
        for multiplexed in (True, False)
        for (key, value), lane in pool._lanes.items()
        for protocol in (HttpProtocol(value),)
        if protocol.multiplexes is multiplexed
    ]
    rows = []
    for (key, protocol), lane in lanes:
        for pooled in lane:
            state = "ESTABLISHED" if pooled.established else "CONNECTING"
            rows.append(
                f"{key}|{protocol.value} {pooled.protocol.value} {state}"
                f" active={len(pooled.inflight)}"
                f" issued={len(pooled.conn.streams)}"
                f" pending={len(pooled.pending) - (not pooled.established)}"
            )
    for host, queue in pool._h1_queues.items():
        if queue:
            rows.append(f"queued {host}: " + " ".join(f.url for f in queue))
    if pool._active_handshakes or pool._handshake_queue:
        rows.append(
            f"handshakes active={pool._active_handshakes}"
            f" queued={len(pool._handshake_queue)}"
        )
    return rows


def fetch(pool, server, path, protocol, name, records):
    fetch_one(pool, server, path, protocol, f"https://{server.hostname}/{name}",
              400, 5000, records.append)


def completed(records):
    return [
        (r.url.rsplit("/", 1)[1], r.protocol, r.reused, r.failed)
        for r in records
    ]


def test_h1_six_per_host_then_queue_drains_in_order():
    loop = EventLoop()
    pool = ConnectionPool(loop)
    server = OriginServer("h1.example", supports_h2=False)
    path, records = make_path(loop), []
    for i in range(8):
        fetch(pool, server, path, HttpProtocol.H1, f"r{i}", records)
    assert snapshot(pool) == [
        "h1.example|http/1.1 http/1.1 CONNECTING active=0 issued=0 pending=0",
    ] * 6 + [
        "queued h1.example: https://h1.example/r6 https://h1.example/r7",
        "handshakes active=6 queued=0",
    ]

    loop.run_until(lambda: len(records) == 1)
    assert snapshot(pool) == [
        "h1.example|http/1.1 http/1.1 ESTABLISHED active=1 issued=2 pending=0",
    ] + [
        "h1.example|http/1.1 http/1.1 ESTABLISHED active=1 issued=1 pending=0",
    ] * 5 + [
        "queued h1.example: https://h1.example/r7",
    ]

    loop.run_until(lambda: len(records) == 2)
    assert snapshot(pool) == [
        "h1.example|http/1.1 http/1.1 ESTABLISHED active=1 issued=2 pending=0",
    ] * 2 + [
        "h1.example|http/1.1 http/1.1 ESTABLISHED active=1 issued=1 pending=0",
    ] * 4

    loop.run()
    assert snapshot(pool) == [
        "h1.example|http/1.1 http/1.1 ESTABLISHED active=0 issued=2 pending=0",
    ] * 2 + [
        "h1.example|http/1.1 http/1.1 ESTABLISHED active=0 issued=1 pending=0",
    ] * 4
    assert completed(records) == [
        ("r0", "http/1.1", False, False),
        ("r1", "http/1.1", False, False),
        ("r2", "http/1.1", False, False),
        ("r3", "http/1.1", False, False),
        ("r4", "http/1.1", False, False),
        ("r5", "http/1.1", False, False),
        ("r6", "http/1.1", True, False),
        ("r7", "http/1.1", True, False),
    ]
    assert pool.stats.reused_requests == 2


def test_h2_fetch_waits_on_the_handshaking_connection():
    loop = EventLoop()
    pool = ConnectionPool(loop)
    server, path, records = make_edge(), make_path(loop), []
    fetch(pool, server, path, HttpProtocol.H2, "r0", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "handshakes active=1 queued=0",
    ]
    fetch(pool, server, path, HttpProtocol.H2, "r1", records)
    fetch(pool, server, path, HttpProtocol.H2, "r2", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=2",
        "handshakes active=1 queued=0",
    ]
    # Counted as reused when it completes, not when it starts waiting.
    assert pool.stats.reused_requests == 0

    loop.run_until(lambda: len(records) == 1)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 ESTABLISHED active=2 issued=3 pending=0",
    ]
    fetch(pool, server, path, HttpProtocol.H2, "r3", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 ESTABLISHED active=3 issued=4 pending=0",
    ]

    loop.run()
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 ESTABLISHED active=0 issued=4 pending=0",
    ]
    # The opener's response waits for the server's TLS set-up CPU.
    assert completed(records) == [
        ("r1", "h2", True, False),
        ("r2", "h2", True, False),
        ("r0", "h2", False, False),
        ("r3", "h2", True, False),
    ]
    assert pool.stats.reused_requests == 3


def test_one_provider_coalesces_onto_one_h3_connection_beside_h2():
    loop = EventLoop()
    pool = ConnectionPool(loop)
    path, records = make_path(loop), []
    cdnjs = make_edge("cdnjs.cloudflare.com")
    static = make_edge("static.cloudflare.com")
    fetch(pool, cdnjs, path, HttpProtocol.H3, "a", records)
    fetch(pool, static, path, HttpProtocol.H3, "b", records)
    fetch(pool, static, path, HttpProtocol.H2, "c", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h3 h3 CONNECTING active=0 issued=0 pending=1",
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "handshakes active=2 queued=0",
    ]

    loop.run_until(lambda: len(records) == 1)
    assert snapshot(pool) == [
        "cdn:cloudflare|h3 h3 ESTABLISHED active=1 issued=2 pending=0",
        "cdn:cloudflare|h2 h2 ESTABLISHED active=1 issued=1 pending=0",
    ]

    loop.run()
    assert snapshot(pool) == [
        "cdn:cloudflare|h3 h3 ESTABLISHED active=0 issued=2 pending=0",
        "cdn:cloudflare|h2 h2 ESTABLISHED active=0 issued=1 pending=0",
    ]
    assert sorted(completed(records)) == [
        ("a", "h3", False, False),
        ("b", "h3", True, False),
        ("c", "h2", False, False),
    ]
    assert [r.host for r in records if r.protocol == HttpProtocol.H3.value] == [
        "static.cloudflare.com", "cdnjs.cloudflare.com",
    ]


def test_handshake_throttle_with_zero_rtt_bypass():
    loop = EventLoop()
    cache = SessionTicketCache()
    cache.store("cdnjs.cloudflare.com", 0.0)
    pool = ConnectionPool(
        loop,
        session_cache=cache,
        transport_config=TransportConfig(max_concurrent_handshakes=2),
    )
    path, records = make_path(loop), []
    origins = [OriginServer(f"o{i}.example") for i in range(3)]
    for i, origin in enumerate(origins):
        fetch(pool, origin, path, HttpProtocol.H2, f"o{i}", records)
    assert snapshot(pool) == [
        "origin:o0.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o1.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o2.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "handshakes active=2 queued=1",
    ]
    # A resumed QUIC connection sends 0-RTT: it skips the queue, takes
    # no slot and issues its opener at once.
    fetch(pool, make_edge(), path, HttpProtocol.H3, "z", records)
    assert snapshot(pool) == [
        "origin:o0.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o1.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o2.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "cdn:cloudflare|h3 h3 ESTABLISHED active=1 issued=1 pending=0",
        "handshakes active=2 queued=1",
    ]

    loop.run_until(lambda: "handshakes active=2 queued=0" in snapshot(pool))
    assert snapshot(pool) == [
        "origin:o0.example|h2 h2 ESTABLISHED active=1 issued=1 pending=0",
        "origin:o1.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o2.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "cdn:cloudflare|h3 h3 ESTABLISHED active=1 issued=1 pending=0",
        "handshakes active=2 queued=0",
    ]

    loop.run()
    assert snapshot(pool) == [
        "origin:o0.example|h2 h2 ESTABLISHED active=0 issued=1 pending=0",
        "origin:o1.example|h2 h2 ESTABLISHED active=0 issued=1 pending=0",
        "origin:o2.example|h2 h2 ESTABLISHED active=0 issued=1 pending=0",
        "cdn:cloudflare|h3 h3 ESTABLISHED active=0 issued=1 pending=0",
    ]
    assert pool.stats.zero_rtt_connections == 1
    blocked = {r.url.rsplit("/", 1)[1]: r.timings.blocked for r in records}
    assert blocked["z"] == 0.0 and blocked["o0"] == 0.0
    assert blocked["o2"] > 0.0


def test_connect_tunnel_downgrades_h3_to_the_tcp_lanes():
    loop = EventLoop()
    pool = ConnectionPool(loop)
    path = SegmentedPath(
        loop,
        (NetemProfile(delay_ms=5.0, rate_mbps=None),
         NetemProfile(delay_ms=10.0, rate_mbps=None)),
        rng=random.Random(0),
        proxy_model="connect-tunnel",
    )
    edge = make_edge()
    h1_only = OriginServer("legacy.example", supports_h2=False)
    records = []
    fetch(pool, edge, path, HttpProtocol.H3, "a", records)
    fetch(pool, edge, path, HttpProtocol.H3, "b", records)
    fetch(pool, h1_only, path, HttpProtocol.H3, "c", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=1",
        "legacy.example|http/1.1 http/1.1 CONNECTING active=0 issued=0 pending=0",
        "handshakes active=2 queued=0",
    ]
    # Counted once per coalesce group the proxy refused to carry.
    assert pool.stats.proxy_h3_downgrades == 2

    loop.run()
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 ESTABLISHED active=0 issued=2 pending=0",
        "legacy.example|http/1.1 http/1.1 ESTABLISHED active=0 issued=1 pending=0",
    ]
    assert completed(records) == [
        ("c", "http/1.1", False, False),
        ("b", "h2", True, False),
        ("a", "h2", False, False),
    ]


def test_udp_blackhole_demotes_the_h3_lane():
    loop = EventLoop()
    faults = FaultInjector(
        FaultProfile(events=(FaultEvent("udp_blackhole"),)), loop
    )
    pool = ConnectionPool(loop, faults=faults)
    server, path, records = make_edge(), make_path(loop), []
    fetch(pool, server, path, HttpProtocol.H3, "a", records)
    fetch(pool, server, path, HttpProtocol.H3, "b", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h3 h3 CONNECTING active=0 issued=0 pending=1",
        "handshakes active=1 queued=0",
    ]

    # The handshake deadline fires: both fetches move to one H2
    # connection, the opener first.
    loop.run(until_ms=faults.retry.connect_timeout_ms)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=1",
        "handshakes active=1 queued=0",
    ]
    assert pool.stats.h3_fallbacks == 1
    # Later H3 fetches of the group skip the dead lane.
    fetch(pool, server, path, HttpProtocol.H3, "c", records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=2",
        "handshakes active=1 queued=0",
    ]

    loop.run()
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 ESTABLISHED active=0 issued=3 pending=0",
    ]
    assert completed(records) == [
        ("b", "h2", True, False),
        ("c", "h2", True, False),
        ("a", "h2", False, False),
    ]


def recovery_events(obs):
    """The ``fault:``/``recovery:`` events traced so far, as ``time name``."""
    return [f"{e['time']:g} {e['name']}" for e in obs.fault_tracer().events]


def test_h2_connect_timeout_retries_the_opener_first():
    loop = EventLoop()
    obs = ObsContext(trace=True)
    faults = FaultInjector(
        FaultProfile(events=(FaultEvent("blackout", end_ms=3050.0),)), loop, obs=obs
    )
    pool = ConnectionPool(loop, faults=faults)
    server, path, records = make_edge(), make_path(loop), []
    for name in "abc":
        fetch(pool, server, path, HttpProtocol.H2, name, records)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=2",
        "handshakes active=1 queued=0",
    ]

    # The handshake deadline fires: the lane is gone, its slot is free
    # and all three fetches back off on the same protocol.
    loop.run(until_ms=faults.retry.connect_timeout_ms)
    assert snapshot(pool) == []
    assert recovery_events(obs) == [
        "3000 fault:blackout",
        "3000 recovery:connect_timeout",
        "3000 recovery:connect_retry",
        "3000 recovery:connect_retry",
        "3000 recovery:connect_retry",
    ]

    # After the backoff the opener reopens the lane and the other two
    # wait on its handshake again.
    loop.run(until_ms=faults.retry.connect_timeout_ms + 100.0)
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=2",
        "handshakes active=1 queued=0",
    ]

    loop.run()
    assert snapshot(pool) == [
        "cdn:cloudflare|h2 h2 ESTABLISHED active=0 issued=3 pending=0",
    ]
    assert completed(records) == [
        ("b", "h2", True, False),
        ("c", "h2", True, False),
        ("a", "h2", False, False),
    ]
    assert (pool.stats.connect_timeouts, pool.stats.retried_requests) == (1, 3)


def reset_at_100ms(protocol):
    """A pool whose first connection is reset at 100 ms with two streams
    in flight, and a third fetch that arrives during the backoff."""
    loop = EventLoop()
    obs = ObsContext(trace=True)
    faults = FaultInjector(
        FaultProfile(
            events=(FaultEvent("connection_reset", start_ms=100.0, end_ms=150.0),)
        ),
        loop,
        obs=obs,
    )
    pool = ConnectionPool(loop, faults=faults)
    server, path, records = make_edge(), make_path(loop), []
    fetch(pool, server, path, protocol, "a", records)
    fetch(pool, server, path, protocol, "b", records)
    steps = [snapshot(pool)]
    loop.run(until_ms=99.0)
    steps.append(snapshot(pool))
    loop.run(until_ms=100.0)
    steps.append(snapshot(pool))
    steps.append(recovery_events(obs))
    loop.run(until_ms=150.0)
    fetch(pool, server, path, protocol, "c", records)
    steps.append(snapshot(pool))
    loop.run(until_ms=200.0)
    steps.append(snapshot(pool))
    loop.run()
    steps.append(snapshot(pool))
    return steps, completed(records), pool.stats


def test_connection_reset_retries_h2_streams_on_h2():
    steps, records, stats = reset_at_100ms(HttpProtocol.H2)
    assert steps == [
        [
            "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=1",
            "handshakes active=1 queued=0",
        ],
        ["cdn:cloudflare|h2 h2 ESTABLISHED active=2 issued=2 pending=0"],
        # Both streams back off; the emptied lane leaves the table.
        [],
        [
            "100 fault:connection_reset",
            "100 recovery:request_retry",
            "100 recovery:request_retry",
        ],
        # The newcomer reopens the lane (with a resumed handshake) ...
        [
            "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=0",
            "handshakes active=1 queued=0",
        ],
        # ... and the retried streams wait on it.
        [
            "cdn:cloudflare|h2 h2 CONNECTING active=0 issued=0 pending=2",
            "handshakes active=1 queued=0",
        ],
        ["cdn:cloudflare|h2 h2 ESTABLISHED active=0 issued=3 pending=0"],
    ]
    assert records == [
        ("a", "h2", True, False),
        ("b", "h2", True, False),
        ("c", "h2", False, False),
    ]
    assert (stats.connection_resets, stats.retried_requests, stats.h3_fallbacks) == (
        1, 2, 0,
    )


def test_connection_reset_keeps_the_h3_lane():
    # A reset hits TCP just as hard: it does not demote the group to H2.
    steps, records, stats = reset_at_100ms(HttpProtocol.H3)
    assert steps == [
        [
            "cdn:cloudflare|h3 h3 CONNECTING active=0 issued=0 pending=1",
            "handshakes active=1 queued=0",
        ],
        ["cdn:cloudflare|h3 h3 ESTABLISHED active=2 issued=2 pending=0"],
        [],
        [
            "100 fault:connection_reset",
            "100 recovery:request_retry",
            "100 recovery:request_retry",
        ],
        # The newcomer resumes with 0-RTT: usable at once.
        ["cdn:cloudflare|h3 h3 ESTABLISHED active=1 issued=1 pending=0"],
        ["cdn:cloudflare|h3 h3 ESTABLISHED active=3 issued=3 pending=0"],
        ["cdn:cloudflare|h3 h3 ESTABLISHED active=0 issued=3 pending=0"],
    ]
    assert records == [
        ("a", "h3", True, False),
        ("b", "h3", True, False),
        ("c", "h3", False, False),
    ]
    assert (stats.connection_resets, stats.retried_requests, stats.h3_fallbacks) == (
        1, 2, 0,
    )


def test_connect_timeouts_release_their_handshake_slots():
    loop = EventLoop()
    faults = FaultInjector(
        FaultProfile(events=(FaultEvent("blackout"),), retry=RetryPolicy(max_retries=0)),
        loop,
    )
    # Strict checking raises if a release ever unbalances the slots.
    pool = ConnectionPool(
        loop,
        faults=faults,
        transport_config=TransportConfig(max_concurrent_handshakes=2),
        check=CheckContext(),
    )
    path, records = make_path(loop), []
    for i in range(3):
        fetch(pool, OriginServer(f"o{i}.example"), path, HttpProtocol.H2, f"o{i}", records)
    assert snapshot(pool) == [
        "origin:o0.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o1.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "origin:o2.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "handshakes active=2 queued=1",
    ]

    # o0 times out and its slot starts o2's handshake; o1 then times
    # out and frees its slot with nothing left to start.
    loop.run(until_ms=faults.retry.connect_timeout_ms)
    assert snapshot(pool) == [
        "origin:o2.example|h2 h2 CONNECTING active=0 issued=0 pending=0",
        "handshakes active=1 queued=0",
    ]

    loop.run()
    assert snapshot(pool) == []
    assert loop.now == 2 * faults.retry.connect_timeout_ms
    assert completed(records) == [
        ("o0", "h2", False, True),
        ("o1", "h2", False, True),
        ("o2", "h2", False, True),
    ]
    assert [r.timings.blocked for r in records] == [3000.0, 3000.0, 6000.0]
    pool.close()
