"""Tests for bootstrap CIs, text plotting and BBR."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bootstrap import bootstrap_ci, difference_significant
from repro.analysis.textplot import bar_chart, line_chart
from repro.transport import BbrLikeController, make_congestion_controller


class TestBootstrap:
    def test_interval_contains_point_estimate(self):
        rng = random.Random(1)
        values = [rng.gauss(50.0, 10.0) for _ in range(100)]
        ci = bootstrap_ci(values, seed=2)
        assert ci.low <= ci.point <= ci.high

    def test_interval_narrows_with_sample_size(self):
        rng = random.Random(1)
        small = [rng.gauss(0, 1) for _ in range(20)]
        large = [rng.gauss(0, 1) for _ in range(2000)]
        assert bootstrap_ci(large, seed=3).width < bootstrap_ci(small, seed=3).width

    def test_deterministic_under_seed(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)

    def test_contains_operator(self):
        ci = bootstrap_ci([10.0] * 50, seed=1)
        assert 10.0 in ci
        assert 99.0 not in ci

    def test_difference_significant_detects_clear_gap(self):
        rng = random.Random(4)
        a = [rng.gauss(100.0, 5.0) for _ in range(80)]
        b = [rng.gauss(50.0, 5.0) for _ in range(80)]
        significant, interval = difference_significant(a, b, seed=5)
        assert significant
        assert interval.low > 0

    def test_difference_not_significant_for_same_distribution(self):
        rng = random.Random(6)
        a = [rng.gauss(0.0, 10.0) for _ in range(50)]
        b = [rng.gauss(0.0, 10.0) for _ in range(50)]
        significant, interval = difference_significant(a, b, seed=7)
        assert not significant
        assert interval.low < 0 < interval.high

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=3)
        with pytest.raises(ValueError):
            difference_significant([], [1.0])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_interval_within_sample_hull_for_mean(self, values):
        ci = bootstrap_ci(values, resamples=200, seed=1)
        assert min(values) - 1e-9 <= ci.low
        assert ci.high <= max(values) + 1e-9


class TestTextPlot:
    def test_line_chart_renders_grid(self):
        lines = line_chart({"a": [(0, 0), (1, 1), (2, 4)]}, width=20, height=6)
        assert any("*" in line for line in lines)
        assert any("a" in line for line in lines[-1:])

    def test_line_chart_multiple_series_markers(self):
        lines = line_chart(
            {"one": [(0, 1), (1, 2)], "two": [(0, 2), (1, 1)]}, width=10, height=5
        )
        joined = "\n".join(lines)
        assert "*" in joined and "o" in joined

    def test_line_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_bar_chart_scales_to_peak(self):
        lines = bar_chart({"x": 10.0, "y": 5.0}, width=20)
        bars = {line.split("|")[0].strip(): line.count("#") for line in lines}
        assert bars["x"] == 20
        assert bars["y"] == 10

    def test_bar_chart_negative_values_marked(self):
        lines = bar_chart({"neg": -5.0})
        assert "-" in lines[0].split("|")[1]

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})


class TestBbr:
    def test_factory_makes_bbr(self):
        cc = make_congestion_controller("bbr", 1460)
        assert isinstance(cc, BbrLikeController)

    def test_model_sets_window_to_gain_times_bdp(self):
        cc = BbrLikeController(1460)
        cc.on_rate_sample(bytes_per_ms=100.0, rtt_ms=30.0)  # BDP = 3000 B
        assert cc.cwnd_bytes == pytest.approx(2.0 * 3000.0)

    def test_isolated_loss_does_not_collapse_window(self):
        cc = BbrLikeController(1460)
        cc.on_rate_sample(1000.0, 30.0)
        before = cc.cwnd_bytes
        cc.on_loss(now_ms=1.0)
        assert cc.cwnd_bytes == before
        assert cc.loss_events == 1

    def test_rto_resets_the_model(self):
        cc = BbrLikeController(1460)
        cc.on_rate_sample(1000.0, 30.0)
        cc.on_rto(now_ms=1.0)
        assert cc.cwnd_bytes == 4 * 1460

    def test_startup_grows_exponentially(self):
        cc = BbrLikeController(1460, initial_cwnd_packets=10)
        before = cc.cwnd_bytes
        cc.on_ack(before, now_ms=0.0)
        assert cc.cwnd_bytes == 2 * before

    def test_end_to_end_transfer_with_bbr(self):
        from repro.events import EventLoop
        from repro.netsim import NetemProfile, NetworkPath
        from repro.transport import QuicConnection, TransportConfig

        loop = EventLoop()
        path = NetworkPath(
            loop, NetemProfile(delay_ms=15.0, loss_rate=0.01, rate_mbps=50.0),
            rng=random.Random(5),
        )
        conn = QuicConnection(
            loop, path, config=TransportConfig(congestion_control="bbr")
        )
        done = []
        conn.connect(done.append)
        loop.run_until(lambda: bool(done))
        stream = conn.request(400, 200_000)
        loop.run_until(lambda: stream.complete)
        assert stream.received == 200_000
