"""Deep telemetry: metrics sampler, spans, progress, exporters.

The contracts under test, in descending order of importance:

* **Bit-identity** — metrics sampling, spans, loop profiling and
  progress reporting never change a single simulation result.
* **Store-key exclusion** — telemetry knobs are absent from result
  store content addresses, so toggling them replays warm.
* **Worker determinism** — metrics records and span *sim* fields are
  identical for any worker count; the run manifest round-trips with
  the new sections either way.
* **Standard exports** — the qlog document carries the required 0.3
  fields and the Perfetto document well-formed complete events.
"""

import io
import json
import types

import pytest

from repro.measurement import CampaignConfig, CampaignPlan, execute
from repro.obs import (
    SPAN_KINDS,
    ConnectionSampler,
    LinkSampler,
    NULL_SAMPLER,
    ProgressReporter,
    TraceSchemaError,
    build_run_manifest,
    read_run_manifest,
    spans_to_trace_events,
    timeseries,
    to_qlog,
    validate_record,
    validate_span,
    write_run_manifest,
)
from repro.obs.export import main as export_main
from repro.obs.schema import validate_events
from repro.store import ResultStore
from repro.store.keys import campaign_config_hash, visit_config_part
from repro.web.topsites import GeneratorConfig, cached_universe

SMALL = GeneratorConfig(
    n_sites=6,
    resources_per_page_median=12.0,
    min_resources=5,
    max_resources=25,
)

ALL_ON = dict(
    collect_counters=True,
    trace=True,
    metrics_interval_ms=5.0,
    spans=True,
    profile_loop=True,
)


def small_universe(seed: int = 21):
    return cached_universe(SMALL, seed=seed)


@pytest.fixture(scope="module")
def telemetry_runs():
    """One fully-instrumented campaign at workers=1 and workers=4,
    plus the equivalent telemetry-free run."""
    universe = small_universe()
    pages = universe.pages[:3]
    plain = execute(CampaignPlan(
        universe, sim=CampaignConfig(seed=3), pages=pages, workers=1
    ))
    runs = {
        workers: execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3, **ALL_ON), pages=pages,
            workers=workers
        ))
        for workers in (1, 4)
    }
    return types.SimpleNamespace(plain=plain, w1=runs[1], w4=runs[4])


# ----------------------------------------------------------------------
# Bit-identity and worker determinism
# ----------------------------------------------------------------------


class TestBitIdentity:
    def test_full_telemetry_does_not_change_results(self, telemetry_runs):
        for pv_plain, pv_obs in zip(
            telemetry_runs.plain.paired_visits, telemetry_runs.w1.paired_visits
        ):
            assert pv_plain.h2.plt_ms == pv_obs.h2.plt_ms
            assert pv_plain.h3.plt_ms == pv_obs.h3.plt_ms
            assert pv_plain.h2.har.to_dict() == pv_obs.h2.har.to_dict()
            assert pv_plain.h3.har.to_dict() == pv_obs.h3.har.to_dict()

    def test_metrics_records_identical_across_workers(self, telemetry_runs):
        assert list(telemetry_runs.w1.metrics_events()) == list(
            telemetry_runs.w4.metrics_events()
        )

    def test_span_sim_fields_identical_across_workers(self, telemetry_runs):
        def sim_only(spans):
            return [
                {k: v for k, v in span.items() if k != "wall_ms"}
                for span in spans
            ]

        assert sim_only(telemetry_runs.w1.span_records()) == sim_only(
            telemetry_runs.w4.span_records()
        )


# ----------------------------------------------------------------------
# Store-key exclusion
# ----------------------------------------------------------------------


class TestStoreKeyExclusion:
    def test_telemetry_knobs_absent_from_visit_keys(self):
        base = CampaignConfig(seed=3)
        instrumented = CampaignConfig(
            seed=3,
            metrics_interval_ms=2.5,
            metrics_max_samples=64,
            spans=True,
            profile_loop=True,
            progress=True,
        )
        assert visit_config_part(base) == visit_config_part(instrumented)
        assert campaign_config_hash(base) == campaign_config_hash(instrumented)

    def test_observed_run_replays_warm_from_plain_store(self, tmp_path):
        universe = small_universe()
        pages = universe.pages[:2]
        store = ResultStore(str(tmp_path / "st"))
        cold = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3), pages=pages, store=store,
            run_name="cold"
        ))
        assert cold.store_stats.misses == len(cold.paired_visits)
        warm = execute(CampaignPlan(
            universe,
            sim=CampaignConfig(seed=3, metrics_interval_ms=5.0, spans=True,
                               progress=True),
            pages=pages, store=store, run_name="warm"
        ))
        store.close()
        assert warm.store_stats.hit_rate == 1.0
        for pv_cold, pv_warm in zip(cold.paired_visits, warm.paired_visits):
            assert pv_cold.h2.plt_ms == pv_warm.h2.plt_ms
            assert pv_cold.h3.plt_ms == pv_warm.h3.plt_ms


# ----------------------------------------------------------------------
# Metrics sampler
# ----------------------------------------------------------------------


class TestMetricsSampler:
    def test_records_schema_valid(self, telemetry_runs):
        records = list(telemetry_runs.w1.metrics_events())
        assert records
        assert validate_events(records) == len(records)
        names = {record["name"] for record in records}
        assert names == {"metrics:transport_sample", "metrics:link_sample"}

    def test_transport_samples_carry_state_fields(self, telemetry_runs):
        sample = next(
            record
            for record in telemetry_runs.w1.metrics_events()
            if record["name"] == "metrics:transport_sample"
        )
        assert {"cwnd", "bytes_in_flight", "srtt_ms", "goodput_kbps"} <= set(
            sample["data"]
        )
        assert sample["data"]["cwnd"] > 0

    def test_delta_t_gating(self, telemetry_runs):
        """Per connection, consecutive periodic samples are at least one
        interval apart (loss/PTO-forced samples may be closer, so the
        check allows isolated short gaps but not systematic ones)."""
        by_conn = {}
        for record in telemetry_runs.w1.metrics_events():
            if record["name"] != "metrics:transport_sample":
                continue
            key = (record["page"], record["mode"], record["conn"])
            by_conn.setdefault(key, []).append(record["time"])
        assert by_conn
        all_gaps = []
        for times in by_conn.values():
            assert times == sorted(times)
            all_gaps += [b - a for a, b in zip(times, times[1:])]
        assert all_gaps
        short = sum(1 for gap in all_gaps if gap < 2.5)
        assert short <= len(all_gaps) // 2

    def test_ring_buffer_bounds_samples(self):
        sampler = ConnectionSampler("c", "h3", interval_ms=1.0, max_samples=8)
        loop = types.SimpleNamespace(now=0.0)
        conn = types.SimpleNamespace(
            loop=loop,
            _delivered_bytes=0,
            _bytes_in_flight=5,
            cc=types.SimpleNamespace(cwnd_bytes=14600),
            rtt=types.SimpleNamespace(srtt_ms=20.0),
        )
        for ms in range(100):
            loop.now = float(ms)
            conn._delivered_bytes += 1460
            sampler.on_ack(conn)
        assert len(sampler) == 8  # oldest samples dropped first
        records = sampler.records()
        assert records[-1]["time"] == 99.0
        assert records[-1]["data"]["goodput_kbps"] > 0

    def test_null_sampler_is_falsy_noop(self):
        assert not NULL_SAMPLER
        NULL_SAMPLER.on_ack(object())
        NULL_SAMPLER.on_loss(object())

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ConnectionSampler("c", "h3", interval_ms=0.0)
        with pytest.raises(ValueError):
            LinkSampler("l", interval_ms=-1.0)

    def test_timeseries_groups_by_conn(self, telemetry_runs):
        series = timeseries(
            telemetry_runs.w1.metrics_events(),
            "cwnd",
            name="metrics:transport_sample",
        )
        assert series
        for points in series.values():
            assert all(isinstance(t, float) for t, __ in points)
            assert [t for t, __ in points] == sorted(t for t, __ in points)

    def test_timeseries_feeds_textplot(self, telemetry_runs):
        from repro.analysis.textplot import line_chart

        series = timeseries(telemetry_runs.w1.metrics_events(), "cwnd")
        chart = line_chart(series)
        assert chart


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_hierarchy_kinds_and_phases(self, telemetry_runs):
        spans = list(telemetry_runs.w1.span_records())
        kinds = {span["kind"] for span in spans}
        assert kinds == {"visit", "phase", "transfer"}
        assert kinds <= SPAN_KINDS
        phases = {
            span["name"].split(":")[0]
            for span in spans
            if span["kind"] == "phase"
        }
        assert phases == {"dns", "connect", "tls", "request"}

    def test_parents_resolve_within_visit(self, telemetry_runs):
        by_visit = {}
        for span in telemetry_runs.w1.span_records():
            key = (span["page"], span["probe"], span["mode"])
            by_visit.setdefault(key, {})[span["id"]] = span
        for spans in by_visit.values():
            roots = [s for s in spans.values() if s["parent"] is None]
            assert roots and all(s["kind"] == "visit" for s in roots)
            for span in spans.values():
                if span["parent"] is not None:
                    parent = spans[span["parent"]]
                    assert parent["t0"] <= span["t0"]

    def test_spans_are_complete_and_validated(self, telemetry_runs):
        for span in telemetry_runs.w1.span_records():
            validate_record(span)
            assert span["t1"] >= span["t0"] >= 0.0
            assert span["wall_ms"] is None or span["wall_ms"] >= 0.0


# ----------------------------------------------------------------------
# Schema dispatch
# ----------------------------------------------------------------------


def good_span():
    return {
        "id": 3,
        "parent": 1,
        "kind": "phase",
        "name": "connect:example.com",
        "t0": 1.0,
        "t1": 4.0,
        "wall_ms": 0.2,
    }


class TestSchemaDispatch:
    def test_unknown_record_shape_is_an_error(self):
        with pytest.raises(TraceSchemaError, match="neither"):
            validate_record({"time": 1.0, "data": {}})

    def test_unregistered_data_key_is_an_error(self):
        event = {
            "time": 1.0,
            "name": "transport:packet_acked",
            "data": {"seq": 1, "bogus_field": 2},
            "conn": "c",
            "protocol": "h3",
        }
        with pytest.raises(TraceSchemaError, match="bogus_field"):
            validate_record(event)

    def test_valid_span_passes(self):
        validate_span(good_span())
        validate_record(good_span())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.update(kind="nap"),
            lambda s: s.update(id=0),
            lambda s: s.update(id=True),
            lambda s: s.update(parent="one"),
            lambda s: s.update(t0=-1.0),
            lambda s: s.update(t1=0.5),
            lambda s: s.update(wall_ms=-2.0),
            lambda s: s.pop("name"),
        ],
    )
    def test_invalid_spans_rejected(self, mutate):
        span = good_span()
        mutate(span)
        with pytest.raises(TraceSchemaError):
            validate_span(span)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestQlogExport:
    def test_required_qlog_03_fields(self, telemetry_runs):
        events = list(telemetry_runs.w1.trace_events()) + list(
            telemetry_runs.w1.metrics_events()
        )
        document = to_qlog(events)
        assert document["qlog_version"] == "0.3"
        assert document["qlog_format"] == "JSON"
        assert document["traces"]
        for trace in document["traces"]:
            assert trace["vantage_point"]["type"] == "client"
            common = trace["common_fields"]
            assert common["time_format"] == "relative"
            assert common["reference_time"] == 0
            assert common["ODCID"]
            assert common["protocol_type"] == ["h3"]
            times = [event["time"] for event in trace["events"]]
            assert times == sorted(times)

    def test_quic_only_by_default(self, telemetry_runs):
        events = list(telemetry_runs.w1.trace_events())
        protocols = {e["protocol"] for e in events}
        assert "h2" in protocols  # the h2-only arm did run
        document = to_qlog(events)
        assert all(
            t["common_fields"]["protocol_type"] == ["h3"]
            for t in document["traces"]
        )
        everything = to_qlog(events, protocols=None)
        assert len(everything["traces"]) > len(document["traces"])

    def test_packet_and_sampler_event_mapping(self, telemetry_runs):
        events = list(telemetry_runs.w1.trace_events()) + list(
            telemetry_runs.w1.metrics_events()
        )
        document = to_qlog(events)
        merged = [e for t in document["traces"] for e in t["events"]]
        sent = next(e for e in merged if e["name"] == "transport:packet_sent")
        assert sent["data"]["header"]["packet_number"] is not None
        assert sent["data"]["raw"]["length"] > 0
        updated = [e for e in merged if e["name"] == "recovery:metrics_updated"]
        assert any("smoothed_rtt" in e["data"] for e in updated)  # sampler-born
        assert any("ssthresh" in e["data"] for e in updated)  # tracer-born
        lost = [e for e in merged if e["name"] == "recovery:packet_lost"]
        for event in lost:
            assert event["data"]["trigger"] in ("packet_threshold", "pto")


class TestPerfettoExport:
    def test_complete_events_and_thread_names(self, telemetry_runs):
        spans = list(telemetry_runs.w1.span_records())
        document = spans_to_trace_events(spans)
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == len(spans)
        assert metas and all(e["name"] == "thread_name" for e in metas)
        tids = {e["tid"] for e in xs}
        assert tids == {e["tid"] for e in metas}
        for event in xs:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert {"name", "cat", "pid", "tid", "args"} <= set(event)

    def test_microsecond_scaling(self):
        span = dict(good_span(), page="p", probe="pr", mode="h2-only")
        document = spans_to_trace_events([span])
        event = next(e for e in document["traceEvents"] if e["ph"] == "X")
        assert event["ts"] == pytest.approx(1000.0)
        assert event["dur"] == pytest.approx(3000.0)

    def test_export_cli_round_trip(self, tmp_path, telemetry_runs):
        spans_path = tmp_path / "spans.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        with open(spans_path, "w") as handle:
            for span in telemetry_runs.w1.span_records():
                handle.write(json.dumps(span) + "\n")
        with open(trace_path, "w") as handle:
            for event in telemetry_runs.w1.trace_events():
                handle.write(json.dumps(event) + "\n")
        out_qlog = tmp_path / "out.qlog"
        out_perfetto = tmp_path / "out.json"
        assert export_main(["qlog", str(trace_path), "-o", str(out_qlog)]) == 0
        assert export_main(
            ["perfetto", str(spans_path), "-o", str(out_perfetto)]
        ) == 0
        assert json.loads(out_qlog.read_text())["qlog_version"] == "0.3"
        assert json.loads(out_perfetto.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# Progress reporter
# ----------------------------------------------------------------------


def fake_outcome(events=1000.0, requests=10.0, fastpath=4.0, status="ok"):
    counters = {
        "loop.events_processed": events,
        "pool.requests": requests,
        "transport.fastpath.epochs": fastpath,
    }
    visit = types.SimpleNamespace(counters={"counters": counters})
    return types.SimpleNamespace(status=status, h2=visit, h3=visit)


class TestProgressReporter:
    def test_summary_fields(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=3, workers=2, stream=stream)
        reporter.add_replayed(1)
        reporter.add_outcome(fake_outcome())
        reporter.add_outcome(fake_outcome(status="failed"))
        summary = reporter.finish()
        assert summary["visits"] == 3
        assert summary["total"] == 3
        assert summary["replayed"] == 1
        assert summary["failed"] == 1
        assert summary["events"] == 4000  # 2 outcomes x 2 modes x 1000
        assert summary["workers"] == 2
        assert summary["visits_per_s"] > 0
        assert summary["fastpath_hit_rate"] == pytest.approx(16 / 40)
        assert summary["peak_rss_kb"] > 0

    def test_final_visit_always_heartbeats(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, interval_s=3600.0, stream=stream)
        reporter.add_outcome(fake_outcome())
        assert stream.getvalue() == ""  # interval not reached, not done
        reporter.add_outcome(fake_outcome())
        line = stream.getvalue()
        assert "[progress] 2/2 visits (100%)" in line
        assert reporter.finish()["heartbeats"] == 1

    def test_heartbeat_line_mentions_rates(self):
        reporter = ProgressReporter(total=10, stream=io.StringIO())
        reporter.add_outcome(fake_outcome())
        line = reporter.heartbeat_line()
        assert "visits/s" in line
        assert "ev/s" in line
        assert "eta" in line

    def test_counters_missing_is_fine(self):
        reporter = ProgressReporter(total=1, stream=io.StringIO())
        visit = types.SimpleNamespace(counters=None)
        reporter.add_outcome(types.SimpleNamespace(status="ok", h2=visit, h3=visit))
        assert reporter.finish()["events"] == 0


# ----------------------------------------------------------------------
# Campaign-level progress + profiling plumbing
# ----------------------------------------------------------------------


class TestCampaignPlumbing:
    def test_progress_summary_on_result(self, capsys):
        universe = small_universe()
        config = CampaignConfig(seed=3, collect_counters=True, progress=True)
        result = execute(CampaignPlan(
            universe, sim=config, pages=universe.pages[:2], workers=1
        ))
        summary = result.progress
        assert summary["visits"] == summary["total"] == len(result.paired_visits)
        assert summary["events"] > 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        assert "[progress]" not in captured.out

    def test_loop_profile_merged_across_workers(self, telemetry_runs):
        for result in (telemetry_runs.w1, telemetry_runs.w4):
            profile = result.loop_profile
            assert profile
            assert all(
                stats["count"] > 0 and stats["total_ms"] >= 0.0
                for stats in profile.values()
            )
        assert set(telemetry_runs.w1.loop_profile) == set(
            telemetry_runs.w4.loop_profile
        )
        counts1 = {k: v["count"] for k, v in telemetry_runs.w1.loop_profile.items()}
        counts4 = {k: v["count"] for k, v in telemetry_runs.w4.loop_profile.items()}
        assert counts1 == counts4

    def test_profile_stripped_from_store_documents(self, tmp_path):
        universe = small_universe()
        store = ResultStore(str(tmp_path / "st"))
        execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3, profile_loop=True),
            pages=universe.pages[:1], store=store, run_name="profiled"
        ))
        warm = execute(CampaignPlan(
            universe, sim=CampaignConfig(seed=3, profile_loop=True),
            pages=universe.pages[:1], store=store, run_name="profiled2"
        ))
        store.close()
        assert warm.store_stats.hit_rate == 1.0
        # Replayed visits have no profile (it is wall-clock diagnostic),
        # so the merged campaign profile is absent on warm runs.
        assert warm.loop_profile in (None, {})


# ----------------------------------------------------------------------
# Manifest round-trip with the new sections (workers 1 vs 4)
# ----------------------------------------------------------------------


class TestManifestSections:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_round_trip_with_spans_and_metrics(self, tmp_path, workers,
                                               telemetry_runs):
        result = telemetry_runs.w1 if workers == 1 else telemetry_runs.w4
        manifest = build_run_manifest(
            invocation={"scale": "smoke", "seed": 3, "workers": workers},
            experiments=[{"id": "table2", "title": "t", "wall_clock_s": 1.0}],
            counters=result.counter_totals().to_dict(),
            trace_files=["trace.jsonl", "metrics.jsonl", "spans.jsonl"],
            metrics={
                "interval_ms": 5.0,
                "records": sum(1 for __ in result.metrics_events()),
            },
            spans={"records": sum(1 for __ in result.span_records())},
            progress={"visits": len(result.paired_visits)},
            loop_profile=result.loop_profile,
        )
        path = tmp_path / "run.json"
        write_run_manifest(str(path), manifest)
        restored = read_run_manifest(str(path))
        assert restored == manifest
        assert restored["metrics"]["records"] > 0
        assert restored["spans"]["records"] > 0
        assert restored["loop_profile"]

    def test_sections_absent_when_disabled(self):
        manifest = build_run_manifest(
            invocation={},
            experiments=[],
            counters=None,
            trace_files=[],
        )
        for key in ("metrics", "spans", "progress", "loop_profile"):
            assert key not in manifest

    def test_manifest_sections_identical_across_workers(self, telemetry_runs):
        records1 = sum(1 for __ in telemetry_runs.w1.metrics_events())
        records4 = sum(1 for __ in telemetry_runs.w4.metrics_events())
        assert records1 == records4
        spans1 = sum(1 for __ in telemetry_runs.w1.span_records())
        spans4 = sum(1 for __ in telemetry_runs.w4.span_records())
        assert spans1 == spans4


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------


class TestCliTelemetry:
    def test_all_flags_write_all_families(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.obs import validate_jsonl

        trace_dir = tmp_path / "out"
        code = main(
            [
                "--scale", "smoke", "--sites", "5",
                "--experiments", "table2", "--counters",
                "--metrics-interval", "5", "--spans", "--profile",
                "--progress",
                "--trace-dir", str(trace_dir),
                "--json", str(tmp_path / "results.json"),
            ]
        )
        assert code == 0
        for name in ("trace.jsonl", "metrics.jsonl", "spans.jsonl"):
            assert validate_jsonl(str(trace_dir / name)) > 0
        manifest = read_run_manifest(str(trace_dir / "run.json"))
        assert manifest["invocation"]["metrics_interval_ms"] == 5.0
        assert manifest["invocation"]["spans"] is True
        assert manifest["metrics"]["records"] > 0
        assert manifest["spans"]["records"] > 0
        assert manifest["progress"]["visits"] > 0
        assert manifest["loop_profile"]
        spans = [
            json.loads(line)
            for line in (trace_dir / "spans.jsonl").read_text().splitlines()
        ]
        assert spans[0]["kind"] == "campaign"  # synthetic root
        out = capsys.readouterr().out
        assert "loop profile" in out.lower() or "profile" in out.lower()
