"""Unit and property tests for the network simulation substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventLoop
from repro.netsim import (
    BernoulliLoss,
    GilbertElliottLoss,
    Link,
    NetemProfile,
    NetworkPath,
    NoLoss,
    Packet,
    PacketKind,
    StreamChunk,
    make_loss_model,
)
from repro.netsim.packet import HEADER_BYTES


def data_packet(nbytes=1000, stream=1, offset=0):
    return Packet(
        PacketKind.DATA, seq=1, chunks=(StreamChunk(stream, offset, nbytes),)
    )


class TestStreamChunk:
    def test_end_offset(self):
        chunk = StreamChunk(stream_id=3, offset=100, size=50)
        assert chunk.end == 150

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            StreamChunk(stream_id=1, offset=0, size=0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            StreamChunk(stream_id=1, offset=-1, size=10)


class TestPacket:
    def test_size_includes_header(self):
        pkt = data_packet(nbytes=1000)
        assert pkt.size_bytes == 1000 + HEADER_BYTES

    def test_ack_packet_is_header_only(self):
        pkt = Packet(PacketKind.ACK, ack_seq=5)
        assert pkt.size_bytes == HEADER_BYTES
        assert pkt.payload_bytes == 0

    def test_uids_are_unique(self):
        a, b = data_packet(), data_packet()
        assert b.uid > a.uid


class TestLossModels:
    def test_no_loss_never_drops(self):
        rng = random.Random(1)
        model = NoLoss()
        assert not any(model.should_drop(rng) for _ in range(1000))

    def test_bernoulli_rate_is_approximate(self):
        rng = random.Random(42)
        model = BernoulliLoss(0.1)
        drops = sum(model.should_drop(rng) for _ in range(20_000))
        assert 0.08 < drops / 20_000 < 0.12

    def test_bernoulli_zero_never_drops(self):
        rng = random.Random(1)
        model = BernoulliLoss(0.0)
        assert not any(model.should_drop(rng) for _ in range(100))

    def test_bernoulli_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_gilbert_elliott_stationary_rate(self):
        model = GilbertElliottLoss(0.01, 0.3, 0.0, 0.5)
        rng = random.Random(7)
        n = 100_000
        drops = sum(model.should_drop(rng) for _ in range(n))
        assert abs(drops / n - model.loss_rate) < 0.005

    def test_gilbert_elliott_produces_bursts(self):
        """Consecutive-drop runs should be longer than under Bernoulli."""
        rng = random.Random(3)
        model = make_loss_model(0.05, bursty=True)
        outcomes = [model.should_drop(rng) for _ in range(50_000)]
        runs, current = [], 0
        for dropped in outcomes:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        mean_run = sum(runs) / len(runs)
        assert mean_run > 1.2  # Bernoulli at 5% would give ~1.05

    def test_make_loss_model_zero_is_noloss(self):
        assert isinstance(make_loss_model(0.0), NoLoss)

    def test_make_loss_model_bursty_matches_rate(self):
        model = make_loss_model(0.02, bursty=True)
        assert abs(model.loss_rate - 0.02) < 1e-9

    @given(rate=st.floats(min_value=0.001, max_value=0.3))
    @settings(max_examples=25, deadline=None)
    def test_bursty_fit_preserves_rate(self, rate):
        model = make_loss_model(rate, bursty=True)
        assert abs(model.loss_rate - rate) < 1e-9


class TestLink:
    def test_delivery_after_propagation_delay(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=10.0, rate_mbps=None)
        arrivals = []
        link.transmit(data_packet(), lambda p: arrivals.append(loop.now))
        loop.run()
        assert arrivals == [10.0]

    def test_serialization_delay_at_rate(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=0.0, rate_mbps=8.0)  # 8 Mbps = 1 byte/us
        arrivals = []
        pkt = data_packet(nbytes=1000 - HEADER_BYTES)  # exactly 1000B on wire
        link.transmit(pkt, lambda p: arrivals.append(loop.now))
        loop.run()
        assert arrivals == [pytest.approx(1.0)]  # 8000 bits / 8 Mbps = 1 ms

    def test_fifo_queueing_behind_busy_transmitter(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=0.0, rate_mbps=8.0)
        arrivals = []
        for _ in range(3):
            link.transmit(
                data_packet(nbytes=1000 - HEADER_BYTES),
                lambda p: arrivals.append(loop.now),
            )
        loop.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_dropped_packets_never_delivered(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=1.0, loss=BernoulliLoss(0.5), rng=random.Random(9))
        delivered = []
        sent = 500
        for _ in range(sent):
            link.transmit(data_packet(), delivered.append)
        loop.run()
        assert len(delivered) == link.stats.delivered_packets
        assert link.stats.dropped_packets + link.stats.delivered_packets == sent
        assert 0.4 < link.stats.observed_loss_rate < 0.6

    def test_jitter_preserves_fifo_order(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=5.0, jitter_ms=4.0, rng=random.Random(2))
        order = []
        for i in range(50):
            pkt = data_packet()
            pkt.seq = i
            link.transmit(pkt, lambda p: order.append(p.seq))
        loop.run()
        assert order == sorted(order)

    def test_stats_byte_accounting(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=1.0)
        pkt = data_packet(nbytes=500)
        link.transmit(pkt, lambda p: None)
        loop.run()
        assert link.stats.sent_bytes == pkt.size_bytes
        assert link.stats.delivered_bytes == pkt.size_bytes

    def test_rejects_bad_parameters(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            Link(loop, delay_ms=-1.0)
        with pytest.raises(ValueError):
            Link(loop, delay_ms=1.0, rate_mbps=0.0)

    def test_filter_drop_consumes_loss_draw(self):
        """Regression: a drop_filter drop must not skip the loss draw.

        Two identically seeded lossy links, one with a filter that
        drops only the first packet: every subsequent loss decision —
        and the final RNG state — must match the unfiltered run.
        """

        def run(filtered):
            loop = EventLoop()
            link = Link(
                loop, delay_ms=1.0, loss=BernoulliLoss(0.3),
                rng=random.Random(4),
            )
            if filtered:
                link.drop_filter = lambda pkt: pkt.seq == 0
            outcomes = []
            for i in range(200):
                pkt = data_packet()
                pkt.seq = i
                outcomes.append(link.transmit(pkt, lambda p: None))
            loop.run()
            return outcomes, link.rng.getstate()

        plain, plain_state = run(False)
        faulted, faulted_state = run(True)
        assert faulted_state == plain_state
        assert faulted[1:] == plain[1:]

    def test_reserved_delivery_counts_at_delivery_time(self):
        """Regression: reservations settle when the clock reaches them,
        not at reservation time — mid-visit readers must never see
        in-flight bytes as delivered."""
        loop = EventLoop()
        link = Link(loop, delay_ms=5.0, rate_mbps=8.0)
        deliver_at = link.reserve_transmit(1000, 0.0)
        assert deliver_at == pytest.approx(6.0)  # 1 ms serialize + 5 ms
        assert link.stats.sent_bytes == 1000
        assert link.stats.delivered_bytes == 0
        assert link.stats.delivered_packets == 0
        link.settle_reserved(deliver_at - 0.001)
        assert link.stats.delivered_bytes == 0
        link.settle_reserved(deliver_at)
        assert link.stats.delivered_bytes == 1000
        assert link.stats.delivered_packets == 1

    def test_transmit_settles_due_reservations(self):
        loop = EventLoop()
        link = Link(loop, delay_ms=1.0, rate_mbps=None)
        link.reserve_transmit(500, 0.0)  # due at t=1.0
        loop.call_at(2.0, lambda: link.transmit(data_packet(), lambda p: None))
        loop.run()
        assert link.stats.delivered_bytes == 500 + data_packet().size_bytes


class TestNetemProfile:
    def test_rtt_is_twice_delay(self):
        assert NetemProfile(delay_ms=15.0).rtt_ms == 30.0

    def test_with_loss_returns_modified_copy(self):
        base = NetemProfile(delay_ms=10.0, loss_rate=0.0)
        lossy = base.with_loss(0.01)
        assert base.loss_rate == 0.0
        assert lossy.loss_rate == 0.01
        assert lossy.delay_ms == 10.0

    def test_tc_command_rendering(self):
        profile = NetemProfile(delay_ms=15.0, loss_rate=0.01, rate_mbps=50.0)
        cmd = profile.tc_command()
        assert "delay 15.0ms" in cmd
        assert "loss 1%" in cmd
        assert "rate 50mbit" in cmd

    def test_rejects_invalid_loss(self):
        with pytest.raises(ValueError):
            NetemProfile(loss_rate=1.5)


class TestNetworkPath:
    def test_round_trip_takes_one_rtt(self):
        loop = EventLoop()
        path = NetworkPath(loop, NetemProfile(delay_ms=20.0, rate_mbps=None))
        times = {}

        def server_side(pkt):
            times["at_server"] = loop.now
            path.send_to_client(
                Packet(PacketKind.ACK, ack_seq=pkt.seq),
                lambda p: times.__setitem__("back_at_client", loop.now),
            )

        path.send_to_server(data_packet(), server_side)
        loop.run()
        assert times["at_server"] == pytest.approx(20.0)
        assert times["back_at_client"] == pytest.approx(40.0)

    def test_directions_have_independent_loss_streams(self):
        loop = EventLoop()
        profile = NetemProfile(delay_ms=1.0, loss_rate=0.3, rate_mbps=None)
        path = NetworkPath(loop, profile, rng=random.Random(5))
        for _ in range(300):
            path.send_to_server(data_packet(), lambda p: None)
            path.send_to_client(data_packet(), lambda p: None)
        loop.run()
        up, down = path.uplink.stats, path.downlink.stats
        assert 0.2 < up.observed_loss_rate < 0.4
        assert 0.2 < down.observed_loss_rate < 0.4

    def test_total_bytes_transferred(self):
        loop = EventLoop()
        path = NetworkPath(loop, NetemProfile(delay_ms=1.0, rate_mbps=None))
        pkt = data_packet(nbytes=100)
        path.send_to_server(pkt, lambda p: None)
        loop.run()
        assert path.total_bytes_transferred() == pkt.size_bytes

    def test_same_seed_reproduces_drops(self):
        def run(seed):
            loop = EventLoop()
            profile = NetemProfile(delay_ms=1.0, loss_rate=0.2, rate_mbps=None)
            path = NetworkPath(loop, profile, rng=random.Random(seed))
            delivered = []
            for i in range(100):
                pkt = data_packet()
                pkt.seq = i
                path.send_to_server(pkt, lambda p: delivered.append(p.seq))
            loop.run()
            return delivered

        assert run(11) == run(11)
        assert run(11) != run(12)
