"""The analytic transport fast path (``repro.transport.fastpath``).

The contract under test has three legs:

1. **Exactness** — on an eligible (loss-free, jitter-free, unfiltered)
   path, a fast-path run produces the *same* application-visible
   timings as the packet path: per-stream first-byte and completion
   times match to the float, including streams enqueued mid-transfer
   (the resumable walk yields to every pending real event, so the
   weighted round-robin sees new streams exactly when the packet path
   would).
2. **Inertness** — whenever the path is ineligible (loss, jitter, a
   drop filter, a fault wrapper) or packet-level observers are attached
   (tracer, strict checker), the fast path changes nothing: runs are
   bit-identical with the flag on or off.
3. **Separation** — ``fast_path`` is part of the result store's
   content address, so fast-path results never alias packet-path ones.
"""

import random

import pytest

from repro.check import CheckContext
from repro.events import EventLoop
from repro.measurement import CampaignConfig, CampaignPlan, execute
from repro.netsim import NetemProfile, NetworkPath
from repro.obs.trace import ConnectionTracer
from repro.store.keys import transport_part
from repro.transport import QuicConnection, TcpConnection, TransportConfig
from repro.web.topsites import GeneratorConfig, cached_universe

RTT = 30.0
BOTH = pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])


def make_path(loop, loss=0.0, seed=0, rate_mbps=20.0, jitter_ms=0.0):
    profile = NetemProfile(
        delay_ms=RTT / 2, loss_rate=loss, rate_mbps=rate_mbps,
        jitter_ms=jitter_ms,
    )
    return NetworkPath(loop, profile, rng=random.Random(seed))


def run_transfer(
    conn_cls, fast, sizes, loss=0.0, jitter_ms=0.0, stagger_ms=0.0,
    tracer=None, check=None, drop_filter=None, wrap=None,
):
    """One connection fetching ``sizes`` concurrently; returns timings.

    ``stagger_ms`` issues request *i* at ``i * stagger_ms`` after the
    handshake instead of all at once — the mid-transfer enqueue case.
    ``wrap`` optionally wraps the path (fault-injection style) before
    the connection sees it.
    """
    loop = EventLoop()
    path = make_path(loop, loss=loss, jitter_ms=jitter_ms)
    if drop_filter is not None:
        path.downlink.drop_filter = drop_filter
    if wrap is not None:
        path = wrap(path)
    conn = conn_cls(
        loop, path, config=TransportConfig(fast_path=fast),
        rng=random.Random(7), tracer=tracer, check=check,
    )
    first = {}
    done = {}

    def issue(i, size):
        conn.request(
            300, size,
            on_first_byte=lambda t, i=i: first.setdefault(i, t),
            on_complete=lambda t, i=i: done.setdefault(i, t),
        )

    def go(_hs):
        for i, size in enumerate(sizes):
            if stagger_ms and i:
                loop.call_later(i * stagger_ms, issue, i, size)
            else:
                issue(i, size)

    conn.connect(go)
    loop.run(until_ms=120_000)
    assert len(done) == len(sizes), "transfer did not finish"
    return {
        "first": first,
        "done": done,
        "events": loop.processed_events,
        "sent": conn.stats.data_packets_sent,
        "acked": conn.stats.acks_received,
        "received": {s.stream_id: s.received for s in conn.streams.values()},
        "conn": conn,
    }


def assert_identical(slow, fast, expect_fewer_events=False):
    assert slow["first"] == fast["first"]
    assert slow["done"] == fast["done"]
    assert slow["sent"] == fast["sent"]
    assert slow["acked"] == fast["acked"]
    assert slow["received"] == fast["received"]
    if expect_fewer_events:
        assert fast["events"] < slow["events"] / 5
    else:
        assert slow["events"] == fast["events"]


class TestExactness:
    @BOTH
    def test_single_stream_times_match_packet_path(self, conn_cls):
        slow = run_transfer(conn_cls, False, [250_000])
        fast = run_transfer(conn_cls, True, [250_000])
        assert_identical(slow, fast, expect_fewer_events=True)

    @BOTH
    def test_concurrent_streams_interleave_identically(self, conn_cls):
        sizes = [400_000, 120_000, 3_000]
        slow = run_transfer(conn_cls, False, sizes)
        fast = run_transfer(conn_cls, True, sizes)
        assert_identical(slow, fast, expect_fewer_events=True)

    @BOTH
    def test_mid_transfer_enqueue_joins_round_robin(self, conn_cls):
        # Streams 1 and 2 are requested while stream 0's transfer is
        # in full flight; the walk must yield so they interleave at
        # exactly the packet path's times.
        sizes = [400_000, 150_000, 80_000]
        slow = run_transfer(conn_cls, False, sizes, stagger_ms=40.0)
        fast = run_transfer(conn_cls, True, sizes, stagger_ms=40.0)
        assert_identical(slow, fast, expect_fewer_events=True)
        # And the late streams really did overlap stream 0.
        assert slow["first"][1] < slow["done"][0]

    @BOTH
    def test_byte_conservation(self, conn_cls):
        sizes = [123_457, 999, 64_000]
        fast = run_transfer(conn_cls, True, sizes)
        assert fast["received"] == {
            i + 1: size for i, size in enumerate(sizes)
        }

    @BOTH
    def test_congestion_state_matches_packet_path(self, conn_cls):
        # Both runs settle completely (run to queue drain), so cc/rtt
        # state — fed by the same ack values at the same times — must
        # agree exactly.
        slow = run_transfer(conn_cls, False, [250_000])
        fast = run_transfer(conn_cls, True, [250_000])
        assert fast["conn"].cc.cwnd_bytes == slow["conn"].cc.cwnd_bytes
        assert fast["conn"].rtt.srtt_ms == slow["conn"].rtt.srtt_ms
        assert fast["conn"].rtt.rto_ms == slow["conn"].rtt.rto_ms
        assert (
            fast["conn"].cc.cwnd_bytes
            > fast["conn"].config.initial_cwnd_packets * fast["conn"].config.mss
        )


class TestInertness:
    @BOTH
    def test_lossy_path_bit_identical(self, conn_cls):
        sizes = [200_000, 50_000]
        slow = run_transfer(conn_cls, False, sizes, loss=0.02)
        fast = run_transfer(conn_cls, True, sizes, loss=0.02)
        assert_identical(slow, fast)

    @BOTH
    def test_jittered_path_bit_identical(self, conn_cls):
        sizes = [100_000]
        slow = run_transfer(conn_cls, False, sizes, jitter_ms=3.0)
        fast = run_transfer(conn_cls, True, sizes, jitter_ms=3.0)
        assert_identical(slow, fast)

    @BOTH
    def test_drop_filter_disables_fast_path(self, conn_cls):
        dropped = []

        def drop_first(pkt):
            if not dropped and pkt.chunks:
                dropped.append(pkt.seq)
                return True
            return False

        slow = run_transfer(conn_cls, False, [80_000], drop_filter=drop_first)
        dropped.clear()
        fast = run_transfer(conn_cls, True, [80_000], drop_filter=drop_first)
        assert dropped, "filter never engaged"
        assert_identical(slow, fast)

    @BOTH
    def test_fault_wrapped_path_disables_fast_path(self, conn_cls):
        from repro.events import EventLoop as _EL
        from repro.faults import FaultInjector, FaultProfile

        def wrap(path):
            injector = FaultInjector(FaultProfile(), path.loop)
            return injector.wrap_path(path, "example.org", quic=True)

        slow = run_transfer(conn_cls, False, [60_000], wrap=wrap)
        fast = run_transfer(conn_cls, True, [60_000], wrap=wrap)
        assert_identical(slow, fast)

    @BOTH
    def test_tracer_forces_packet_path(self, conn_cls):
        tracer = ConnectionTracer("t", "proto")
        slow = run_transfer(conn_cls, False, [60_000])
        fast = run_transfer(conn_cls, True, [60_000], tracer=tracer)
        # Same timings, same (per-packet) event count — and the trace
        # actually holds packet-level records.
        assert_identical(slow, fast)
        assert tracer.count("transport:packet_sent") > 10

    @BOTH
    def test_strict_check_forces_packet_path(self, conn_cls):
        check = CheckContext(mode="raise")
        slow = run_transfer(conn_cls, False, [60_000])
        fast = run_transfer(conn_cls, True, [60_000], check=check)
        assert slow["first"] == fast["first"]
        assert slow["done"] == fast["done"]
        assert slow["sent"] == fast["sent"]

    @BOTH
    def test_flag_off_is_the_default(self, conn_cls):
        assert TransportConfig().fast_path is False


class TestLifecycle:
    @BOTH
    def test_close_mid_walk_is_clean(self, conn_cls):
        loop = EventLoop()
        path = make_path(loop)
        conn = conn_cls(
            loop, path, config=TransportConfig(fast_path=True),
            rng=random.Random(7),
        )
        conn.connect(lambda _hs: conn.request(300, 500_000))
        # Run partway into the transfer, then tear down.
        loop.run(until_ms=RTT * 3)
        assert conn._fp_epoch is not None
        conn.close()
        assert conn._fp_epoch is None
        loop.run(until_ms=10_000)  # leftover callbacks must be harmless

    @BOTH
    def test_sequential_epochs_on_one_connection(self, conn_cls):
        # Two transfers back to back: the second epoch starts from the
        # first's final cc/rtt/seq state, exactly like the packet path.
        # The second request is issued at a fixed absolute time (after
        # both runs have fully settled) so the comparison is not
        # confused by the fast path draining the queue earlier.
        def run(fast):
            loop = EventLoop()
            conn = conn_cls(
                loop, make_path(loop),
                config=TransportConfig(fast_path=fast), rng=random.Random(7),
            )
            done = []
            conn.connect(
                lambda _hs: conn.request(300, 100_000, on_complete=done.append)
            )
            loop.call_at(
                400.0,
                lambda: conn.request(300, 100_000, on_complete=done.append),
            )
            loop.run()
            assert len(done) == 2
            return done

        assert run(True) == run(False)


class TestAccounting:
    @BOTH
    def test_delivered_totals_match_packet_path(self, conn_cls):
        """End-of-visit delivered totals are identical fast vs slow."""
        sizes = [250_000, 40_000]
        slow = run_transfer(conn_cls, False, sizes)
        fast = run_transfer(conn_cls, True, sizes)
        slow_path, fast_path = slow["conn"].path, fast["conn"].path
        assert (
            fast_path.total_bytes_transferred()
            == slow_path.total_bytes_transferred()
        )
        for direction in ("uplink", "downlink"):
            slow_stats = getattr(slow_path, direction).stats
            fast_stats = getattr(fast_path, direction).stats
            assert fast_stats.delivered_packets == slow_stats.delivered_packets
            assert fast_stats.delivered_bytes == slow_stats.delivered_bytes

    @BOTH
    def test_mid_walk_totals_never_over_report(self, conn_cls):
        """Regression: reservations the walk has made for *future*
        delivery times must not show up in delivered stats yet."""
        loop = EventLoop()
        path = make_path(loop)
        conn = conn_cls(
            loop, path, config=TransportConfig(fast_path=True),
            rng=random.Random(7),
        )
        conn.connect(lambda _hs: conn.request(300, 500_000))
        loop.run(until_ms=RTT * 3)
        assert conn._fp_epoch is not None
        assert path.downlink._pending_reserved, "walk reserved nothing ahead"
        path.downlink.settle_reserved(loop.now)
        # Deliveries the walk reserved for times beyond the current
        # clock must still be pending, not already counted delivered.
        assert path.downlink._pending_reserved
        assert (
            path.downlink.stats.delivered_bytes
            < path.downlink.stats.sent_bytes
        )
        conn.close()
        loop.run()


class TestStoreSeparation:
    def test_fast_path_flag_changes_content_address(self):
        off = transport_part(TransportConfig())
        on = transport_part(TransportConfig(fast_path=True))
        assert off != on
        assert on["fast_path"] is True


class TestCampaignLevel:
    def test_campaign_runs_and_stays_close_to_packet_path(self):
        universe = cached_universe(GeneratorConfig(n_sites=4), seed=11)
        pages = universe.pages[:4]
        slow = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=pages, workers=1
        ))
        fast = execute(CampaignPlan(
            universe,
            sim=CampaignConfig(
                seed=3, transport_config=TransportConfig(fast_path=True)
            ),
            pages=pages, workers=1
        ))
        assert len(fast.paired_visits) == len(slow.paired_visits)
        for slow_pv, fast_pv in zip(slow.paired_visits, fast.paired_visits):
            for slow_v, fast_v in (
                (slow_pv.h2, fast_pv.h2), (slow_pv.h3, fast_pv.h3)
            ):
                assert fast_v.status == slow_v.status
                # Residual divergence is same-instant tie-breaking only.
                assert fast_v.plt_ms == pytest.approx(slow_v.plt_ms, rel=1e-3)
