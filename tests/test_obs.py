"""The observability layer: counters, tracing, manifests, CLI export.

The two contracts that matter most here:

* **Zero cost / zero effect when disabled** — attaching no ObsContext
  (or the null tracer) leaves simulation results bit-identical.
* **Determinism across workers** — merged campaign counter totals are
  identical, key order included, for any worker count.
"""

import json
import random

import pytest

from repro.events import EventLoop
from repro.measurement import CampaignConfig, CampaignPlan, execute
from repro.netsim import NetemProfile, NetworkPath
from repro.obs import (
    EVENT_NAMES,
    MANIFEST_FORMAT,
    NULL_TRACER,
    ConnectionTracer,
    CounterRegistry,
    Histogram,
    NullTracer,
    ObsContext,
    TraceSchemaError,
    build_run_manifest,
    merge_counter_dicts,
    read_run_manifest,
    validate_event,
    validate_jsonl,
    write_run_manifest,
)
from repro.obs.schema import validate_events
from repro.transport import QuicConnection, TcpConnection
from repro.web.topsites import GeneratorConfig, cached_universe

SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


class TestCounterRegistry:
    def test_incr_and_read(self):
        reg = CounterRegistry()
        reg.incr("a")
        reg.incr("a", 2.5)
        assert reg.counter("a") == 3.5
        assert reg.counter("missing") == 0.0

    def test_gauge_keeps_max(self):
        reg = CounterRegistry()
        reg.gauge("g", 5.0)
        reg.gauge("g", 3.0)
        reg.gauge("g", 9.0)
        assert reg.to_dict()["gauges"]["g"] == 9.0

    def test_histogram_observe(self):
        reg = CounterRegistry()
        for value in (1.0, 10.0, 100.0, 20_000.0):
            reg.observe("h", value)
        histogram = reg.histogram("h")
        assert histogram.count == 4
        assert histogram.min == 1.0
        assert histogram.max == 20_000.0
        assert histogram.mean == pytest.approx(sum((1.0, 10.0, 100.0, 20_000.0)) / 4)
        # The overflow value lands in the unbounded last bucket.
        assert histogram.counts[-1] == 1

    def test_bool_and_clear(self):
        reg = CounterRegistry()
        assert not reg
        reg.incr("x")
        assert reg
        reg.clear()
        assert not reg

    def test_to_dict_keys_sorted(self):
        reg = CounterRegistry()
        for name in ("zebra", "alpha", "mid"):
            reg.incr(name)
            reg.gauge(f"g.{name}", 1.0)
            reg.observe(f"h.{name}", 1.0)
        doc = reg.to_dict()
        assert list(doc["counters"]) == sorted(doc["counters"])
        assert list(doc["gauges"]) == sorted(doc["gauges"])
        assert list(doc["histograms"]) == sorted(doc["histograms"])

    def test_merge_is_order_independent(self):
        """With exactly-representable values (what the real counters
        hold: packet/handshake/stall counts), merge order is invisible.
        Float-summed metrics rely on the canonical merge order instead."""

        def make(seed):
            rng = random.Random(seed)
            reg = CounterRegistry()
            for __ in range(30):
                reg.incr(f"c.{rng.randrange(5)}", rng.randrange(100))
                reg.gauge(f"g.{rng.randrange(3)}", rng.random())
                reg.observe(f"h.{rng.randrange(3)}", float(rng.randrange(1000)))
            return reg.to_dict()

        dicts = [make(seed) for seed in range(4)]
        forward = merge_counter_dicts(dicts).to_dict()
        backward = merge_counter_dicts(list(reversed(dicts))).to_dict()
        assert forward == backward

    def test_merge_dict_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            CounterRegistry().merge_dict({"format": "nope"})

    def test_histogram_round_trip(self):
        histogram = Histogram()
        for value in (3.0, 55.0, 720.0):
            histogram.observe(value)
        restored = Histogram.from_dict(histogram.to_dict())
        assert restored.to_dict() == histogram.to_dict()

    def test_render_mentions_every_metric(self):
        reg = CounterRegistry()
        reg.incr("c.one", 2)
        reg.gauge("g.two", 1.5)
        reg.observe("h.three", 10.0)
        joined = "\n".join(reg.render())
        assert "c.one" in joined
        assert "g.two" in joined
        assert "h.three" in joined


# ----------------------------------------------------------------------
# Tracers
# ----------------------------------------------------------------------


class TestNullTracer:
    def test_falsy_and_noop(self):
        assert not NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.event(0.0, "transport:packet_sent", seq=1)  # must not raise

    def test_connections_default_to_null_tracer(self):
        loop = EventLoop()
        path = NetworkPath(loop, NetemProfile(delay_ms=10.0), rng=random.Random(0))
        conn = QuicConnection(loop, path)
        assert conn.tracer is NULL_TRACER


def traced_transfer(conn_cls, loss=0.05, seed=7, response_bytes=200_000):
    loop = EventLoop()
    path = NetworkPath(
        loop,
        NetemProfile(delay_ms=15.0, loss_rate=loss, rate_mbps=50.0),
        rng=random.Random(seed),
    )
    tracer = ConnectionTracer("conn-under-test", conn_cls.protocol_name)
    conn = conn_cls(loop, path, tracer=tracer)
    done: list = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    stream = conn.request(400, response_bytes)
    loop.run_until(lambda: stream.complete)
    return conn, tracer


class TestTracedTransfers:
    @pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])
    def test_events_are_schema_valid(self, conn_cls):
        __, tracer = traced_transfer(conn_cls)
        events = tracer.tagged_events()
        assert validate_events(events) == len(events)
        assert {e["name"] for e in events} <= EVENT_NAMES

    @pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])
    def test_packet_events_match_stats(self, conn_cls):
        conn, tracer = traced_transfer(conn_cls)
        s2c = sum(
            1
            for e in tracer.events
            if e["name"] == "transport:packet_sent" and e["data"]["dir"] == "s2c"
        )
        assert s2c == conn.stats.data_packets_sent
        assert tracer.count("transport:packet_lost") == conn.stats.data_packets_lost
        assert conn.stats.data_packets_lost > 0  # the loss rate did bite

    @pytest.mark.parametrize("conn_cls", [TcpConnection, QuicConnection])
    def test_hol_stall_events_match_stats(self, conn_cls):
        conn, tracer = traced_transfer(conn_cls)
        started = tracer.count("transport:hol_stall_started")
        ended = tracer.count("transport:hol_stall_ended")
        assert started == ended == conn.stats.hol_stalls
        assert conn.stats.hol_stalls > 0
        event_ms = sum(
            e["data"]["duration_ms"]
            for e in tracer.events
            if e["name"] == "transport:hol_stall_ended"
        )
        assert event_ms == pytest.approx(conn.stats.hol_stall_ms)

    def test_handshake_and_metrics_events(self):
        __, tracer = traced_transfer(QuicConnection, loss=0.0)
        assert tracer.count("transport:handshake_started") == 1
        assert tracer.count("transport:handshake_completed") == 1
        assert tracer.count("recovery:metrics_updated") > 0
        assert tracer.count("http:stream_opened") == 1
        assert tracer.count("http:stream_closed") == 1

    def test_event_times_monotone_nondecreasing(self):
        __, tracer = traced_transfer(TcpConnection)
        times = [e["time"] for e in tracer.events]
        assert times == sorted(times)


class TestObsContext:
    def test_disabled_trace_returns_no_tracer(self):
        obs = ObsContext(trace=False)
        assert obs.connection_tracer("c", "h3") is None

    def test_drain_visit_resets(self):
        obs = ObsContext(trace=True)
        tracer = obs.connection_tracer("c", "h3")
        tracer.event(1.0, "transport:packet_sent", seq=0, size=100,
                     dir="s2c", retransmission=False)
        obs.counters.incr("x")
        counters, trace, metrics, spans = obs.drain_visit()
        assert counters["counters"]["x"] == 1.0
        assert len(trace) == 1
        assert metrics is None
        assert spans is None
        counters2, trace2, _, _ = obs.drain_visit()
        assert counters2["counters"] == {}
        assert trace2 == []


# ----------------------------------------------------------------------
# Campaign integration: determinism + consistency
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_campaign_result():
    universe = small_universe()
    config = CampaignConfig(seed=3, loss_rate=0.02, collect_counters=True,
                            trace=True)
    return execute(CampaignPlan(
        universe, sim=config, pages=universe.pages[:3], workers=1
    ))


class TestCampaignCounters:
    def test_worker_count_does_not_change_totals(self):
        universe = small_universe()
        config = CampaignConfig(seed=3, collect_counters=True)
        pages = universe.pages[:3]
        totals = {}
        for workers in (1, 2, 4):
            result = execute(CampaignPlan(
                universe, sim=config, pages=pages, workers=workers
            ))
            totals[workers] = result.counter_totals().to_dict()
        assert totals[1] == totals[2] == totals[4]
        # Key ordering is part of the determinism contract.
        assert (
            list(totals[1]["counters"])
            == list(totals[2]["counters"])
            == list(totals[4]["counters"])
        )

    def test_observability_does_not_change_results(self):
        """Null-tracer contract at campaign scope: HARs are identical
        with observability fully on and fully off."""
        universe = small_universe()
        pages = universe.pages[:2]
        plain = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=5), pages=pages, workers=1
        ))
        observed = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=5, collect_counters=True, trace=True),
            pages=pages, workers=1
        ))
        for pv_plain, pv_obs in zip(plain.paired_visits, observed.paired_visits):
            assert pv_plain.h2.har.to_dict() == pv_obs.h2.har.to_dict()
            assert pv_plain.h3.har.to_dict() == pv_obs.h3.har.to_dict()
            assert pv_plain.h2.plt_ms == pv_obs.h2.plt_ms
            assert pv_plain.h3.plt_ms == pv_obs.h3.plt_ms

    def test_plain_campaign_has_no_telemetry(self):
        universe = small_universe()
        result = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=5), pages=universe.pages[:1], workers=1
        ))
        visit = result.paired_visits[0].h2
        assert visit.counters is None
        assert visit.trace is None
        assert not result.counter_totals()

    def test_totals_cover_expected_counter_families(self, traced_campaign_result):
        totals = traced_campaign_result.counter_totals().to_dict()
        names = set(totals["counters"])
        for expected in (
            "transport.packets.sent",
            "transport.handshakes.completed",
            "pool.requests",
            "tls.tickets.stored",
            "loop.events_processed",
        ):
            assert expected in names
        assert "transport.handshake_ms" in totals["histograms"]


class TestCampaignTraces:
    def test_trace_events_schema_valid(self, traced_campaign_result):
        events = list(traced_campaign_result.trace_events())
        assert events
        assert validate_events(events) == len(events)
        for event in events[:50]:
            assert event["mode"] in ("h2-only", "h3-enabled")
            assert event["page"].startswith("https://")

    def test_trace_counts_consistent_with_counters(self, traced_campaign_result):
        """The acceptance criterion: event counts line up with the
        merged counter totals."""
        totals = traced_campaign_result.counter_totals()
        events = list(traced_campaign_result.trace_events())

        def count(name):
            return sum(1 for e in events if e["name"] == name)

        assert count("transport:handshake_completed") == totals.counter(
            "transport.handshakes.completed"
        )
        assert count("security:zero_rtt_accepted") == totals.counter(
            "transport.handshakes.zero_rtt"
        )
        assert count("transport:hol_stall_ended") == totals.counter(
            "transport.hol.stalls"
        )

    def test_h3_visits_carry_quic_connections(self, traced_campaign_result):
        protocols = {
            e["protocol"]
            for e in traced_campaign_result.trace_events()
            if e["mode"] == "h3-enabled"
        }
        assert "h3" in protocols


# ----------------------------------------------------------------------
# Event-loop profiling
# ----------------------------------------------------------------------


class TestLoopProfiling:
    def test_disabled_by_default(self):
        loop = EventLoop()
        assert not loop.profiling_enabled
        assert loop.profile_stats() == {}

    def test_profiles_by_qualname(self):
        loop = EventLoop()
        loop.enable_profiling()

        def tick():
            if loop.now < 5.0:
                loop.call_later(1.0, tick)

        loop.call_later(0.0, tick)
        loop.run()
        stats = loop.profile_stats()
        key = next(k for k in stats if "tick" in k)
        assert stats[key]["count"] >= 5
        assert stats[key]["total_ms"] >= 0.0

    def test_disable_drops_data(self):
        loop = EventLoop()
        loop.enable_profiling()
        loop.call_later(0.0, lambda: None)
        loop.run()
        loop.disable_profiling()
        assert loop.profile_stats() == {}

    def test_profiling_does_not_change_simulated_time(self):
        plain, profiled = EventLoop(), EventLoop()
        profiled.enable_profiling()
        for loop in (plain, profiled):
            loop.call_later(3.0, lambda: None)
            loop.call_later(7.0, lambda: None)
            loop.run()
        assert plain.now == profiled.now


# ----------------------------------------------------------------------
# Schema + manifest
# ----------------------------------------------------------------------


def good_event():
    return {
        "time": 1.5,
        "name": "transport:packet_sent",
        "data": {"seq": 1, "size": 1460, "dir": "s2c", "retransmission": False},
        "conn": "quic-example.com",
        "protocol": "h3",
    }


class TestSchema:
    def test_valid_event_passes(self):
        validate_event(good_event())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: e.update(time=-1.0),
            lambda e: e.update(time=True),
            lambda e: e.update(name="transport:not_a_thing"),
            lambda e: e.update(data=[1, 2]),
            lambda e: e.update(data={"nested": {"x": 1}}),
            lambda e: e.pop("conn"),
            lambda e: e.update(mode=7),
        ],
    )
    def test_invalid_events_rejected(self, mutate):
        event = good_event()
        mutate(event)
        with pytest.raises(TraceSchemaError):
            validate_event(event)

    def test_validate_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(good_event()) + "\n\n" + json.dumps(good_event()) + "\n")
        assert validate_jsonl(str(path)) == 2

    def test_validate_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(good_event()) + "\nnot json\n")
        with pytest.raises(TraceSchemaError, match="trace.jsonl:2"):
            validate_jsonl(str(path))


class TestManifest:
    def test_build_and_round_trip(self, tmp_path):
        manifest = build_run_manifest(
            invocation={"scale": "smoke", "seed": 7},
            experiments=[
                {"id": "table2", "title": "Table II", "wall_clock_s": 1.25},
                {"id": "fig9", "title": "Fig. 9", "wall_clock_s": 2.0},
            ],
            counters={"format": "repro-h3cdn-counters/1", "counters": {},
                      "gauges": {}, "histograms": {}},
            trace_files=["trace.jsonl"],
        )
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["total_wall_clock_s"] == pytest.approx(3.25)
        path = tmp_path / "run.json"
        write_run_manifest(str(path), manifest)
        assert read_run_manifest(str(path)) == manifest

    def test_write_rejects_non_manifest(self, tmp_path):
        with pytest.raises(ValueError):
            write_run_manifest(str(tmp_path / "x.json"), {"format": "other"})

    def test_read_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            read_run_manifest(str(path))


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------


class TestCliObservability:
    def test_trace_dir_json_and_counters(self, tmp_path, capsys):
        from repro.experiments.cli import main

        trace_dir = tmp_path / "out"
        json_path = tmp_path / "results.json"
        code = main(
            [
                "--scale", "smoke", "--sites", "5",
                "--experiments", "table2",
                "--counters",
                "--trace-dir", str(trace_dir),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "merged campaign totals" in out
        assert "transport.handshakes.completed" in out

        n_events = validate_jsonl(str(trace_dir / "trace.jsonl"))
        assert n_events > 0

        manifest = read_run_manifest(str(trace_dir / "run.json"))
        assert manifest["invocation"]["trace"] is True
        assert manifest["experiments"][0]["id"] == "table2"
        assert manifest["counters"] is not None
        assert manifest["trace_files"] == ["trace.jsonl"]

        payload = json.loads(json_path.read_text())
        assert payload["format"] == "repro-h3cdn-results/1"
        assert payload["manifest"]["format"] == MANIFEST_FORMAT
        assert "table2" in payload["experiments"]
        assert payload["experiments"]["table2"]["data"]

    def test_json_without_trace_dir(self, tmp_path):
        from repro.experiments.cli import main

        json_path = tmp_path / "results.json"
        code = main(
            ["--scale", "smoke", "--sites", "5",
             "--experiments", "table2", "--json", str(json_path)]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["manifest"]["trace_files"] == []
        # Counters ride along automatically when --json asks for data.
        assert payload["manifest"]["counters"] is not None
