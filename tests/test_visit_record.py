"""The compact visit record: round trips, bit for bit.

:meth:`VisitOutcome.to_record` is what pool workers send and what the
result store keeps, so a replayed visit is exactly what its record
decodes to.  These tests hold the record to the JSON document it
replaces: after a round trip, every visit's ``to_dict()`` renders to
the same JSON bytes (key and header order included), every float keeps
its bits, and a malformed record raises instead of decoding to
something else.
"""

import json
import struct

import pytest

from repro.browser.browser import H2_ONLY, H3_ENABLED, PageVisit
from repro.browser.har import HarLog
from repro.http.messages import EntryTiming, HarEntry
from repro.http.pool import PoolStats
from repro.measurement import CampaignPlan, execute
from repro.measurement.outcome import RECORD_MAGIC, VisitOutcome
from repro.scenario import preset
from repro.web.topsites import GeneratorConfig, cached_universe

#: Floats whose bits a lossy encoding would change.
AWKWARD = (0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, float("inf"))


def visit_json(visit: PageVisit) -> str:
    return json.dumps(visit.to_dict(), separators=(",", ":"))


def float_bits(visit: PageVisit) -> list[bytes]:
    """Every float of a visit's HAR, as its IEEE-754 bytes."""
    values = [visit.plt_ms, visit.har.on_load_ms, visit.har.started_at_ms]
    for entry in visit.har.entries:
        values += [entry.started_at_ms, entry.time_ms]
        values += list(entry.timings.as_dict().values())
    return [struct.pack("<d", value) for value in values]


def assert_round_trip(outcome: VisitOutcome) -> VisitOutcome:
    record = outcome.to_record()
    assert record[0] == RECORD_MAGIC
    again = VisitOutcome.from_record(record)
    assert (again.page_index, again.status, again.error) == (
        outcome.page_index, outcome.status, outcome.error
    )
    for original, decoded in ((outcome.h2, again.h2), (outcome.h3, again.h3)):
        if original is None:
            assert decoded is None
            continue
        assert visit_json(decoded) == visit_json(original)
        assert float_bits(decoded) == float_bits(original)
        assert decoded.pool_stats == original.pool_stats
    # Decoding is a pure function of the bytes: re-encoding gives them back.
    assert again.to_record() == record
    return again


def entry(index: int, **fields) -> HarEntry:
    base = dict(
        url=f"https://cdn{index % 2}.example/asset-{index}.js",
        host=f"cdn{index % 2}.example",
        protocol="h2",
        timings=EntryTiming(
            blocked=1.5, dns=2.25, connect=30.125, ssl=20.0625,
            send=0.03125, wait=41.7, receive=12.3,
        ),
        response_bytes=48_213 + index,
        request_bytes=512,
        headers={"server": "nginx", "alt-svc": 'h3=":443"; ma=86400'},
        started_at_ms=100.0 * index,
        time_ms=87.9,
        resource_type="script",
        status=200,
    )
    base.update(fields)
    return HarEntry(**base)


def make_visit(entries, *, mode=H2_ONLY, status="ok", **telemetry) -> PageVisit:
    return PageVisit(
        page_url="https://www.example.com/",
        protocol_mode=mode,
        har=HarLog(
            page_url="https://www.example.com/",
            entries=list(entries),
            on_load_ms=1234.5678,
            started_at_ms=0.0,
        ),
        plt_ms=1234.5678,
        pool_stats=PoolStats(
            requests=len(entries), connections_created=2, resumed_connections=1,
            reused_requests=3, h3_fallbacks=1, proxy_cache_hits=4,
        ),
        status=status,
        **telemetry,
    )


class TestSyntheticVisits:
    def test_every_entry_field(self):
        entries = [
            entry(0),
            entry(
                1, protocol="h3", reused=True, resumed=True, cache_hit=True,
                is_cdn=True, provider="Cloudflare", resource_type="image",
                status=304,
            ),
            entry(2, protocol="http/1.1", is_cdn=True, provider=None),
            entry(
                3,
                timings=EntryTiming(*AWKWARD, 0.0),
                started_at_ms=AWKWARD[2],
                time_ms=AWKWARD[0],
            ),
        ]
        assert_round_trip(
            VisitOutcome.from_visits(
                7, make_visit(entries), make_visit(entries[::-1], mode=H3_ENABLED)
            )
        )

    def test_each_flag_alone(self):
        flags = ("reused", "resumed", "cache_hit", "is_cdn", "failed")
        entries = [entry(i, **{name: True}) for i, name in enumerate(flags)]
        again = assert_round_trip(
            VisitOutcome.from_visits(0, make_visit(entries), make_visit(entries))
        )
        for decoded, name in zip(again.h2.entries, flags):
            assert [getattr(decoded, flag) for flag in flags] == [
                flag == name for flag in flags
            ]
            assert all(type(getattr(decoded, flag)) is bool for flag in flags)

    def test_failed_entries(self):
        failed = HarEntry.failure(
            "https://gone.example/x.css", "gone.example", "h3",
            started_at_ms=12.5, request_bytes=300, now_ms=9012.25,
        )
        again = assert_round_trip(
            VisitOutcome.from_visits(
                1, make_visit([entry(0), failed], status="degraded"),
                make_visit([failed], mode=H3_ENABLED, status="degraded"),
            )
        )
        assert again.status == "degraded"
        assert '"_failed":true' in visit_json(again.h2)
        assert again.h3.failed_entries == 1

    def test_header_order_empty_and_non_ascii(self):
        entries = [
            entry(0, headers={}),
            entry(1, headers={"b-first": "1", "a-second": "2"}),
            entry(2, headers={"a-second": "2", "b-first": "1"}),
            entry(3, headers={"x-名前": "värde ✓", "via": "1.1 ünïcode"}),
            entry(4, headers={"x-empty": "", "x-nul": "a\x00b"}),
            entry(5, url="https://exämple.test/päth?q=ü", host="exämple.test"),
        ]
        again = assert_round_trip(
            VisitOutcome.from_visits(2, make_visit(entries), make_visit(entries))
        )
        assert list(again.h2.entries[1].headers) == ["b-first", "a-second"]
        assert list(again.h2.entries[2].headers) == ["a-second", "b-first"]
        # entries sharing a header set still get dicts of their own
        assert again.h2.entries[1].headers is not again.h3.entries[1].headers

    def test_zero_entry_visits(self):
        again = assert_round_trip(
            VisitOutcome.from_visits(
                0, make_visit([]), make_visit([], mode=H3_ENABLED)
            )
        )
        assert again.h2.entries == [] and again.h3.entries == []

    def test_failed_outcome(self):
        outcome = VisitOutcome.from_error(5, "SimulationError: stalled — ✗")
        again = assert_round_trip(outcome)
        assert again == outcome

    def test_telemetry_fields(self):
        telemetry = dict(
            counters={"pool.requests": 3, "transport.bytes": 18_000},
            trace=[
                {"time": 0.5, "name": "transport:packet_sent", "data": {"pn": 1}},
                {"time": AWKWARD[0], "name": "http:fetch", "data": {"url": "ü"}},
            ],
            metrics=[{"t": 1.0, "cwnd": 14_600, "srtt_ms": AWKWARD[4]}],
            spans=[{"name": "visit", "start": 0.0, "end": 9.5, "children": []}],
        )
        again = assert_round_trip(
            VisitOutcome.from_visits(
                3, make_visit([entry(0)], **telemetry),
                make_visit([entry(1)], mode=H3_ENABLED, counters={"a": 1}),
            )
        )
        for name, value in telemetry.items():
            assert getattr(again.h2, name) == value
        assert again.h3.trace is None and again.h3.spans is None

    def test_loop_profile_is_not_recorded(self):
        outcome = VisitOutcome.from_visits(
            0, make_visit([entry(0)]), make_visit([entry(0)]),
            profile={"cb": {"count": 1, "total_ms": 0.5}},
        )
        assert VisitOutcome.from_record(outcome.to_record()).profile is None


class TestCampaignVisits:
    @pytest.mark.parametrize(
        "scenario", ["paper-default", "udp-blocked", "cdn-hierarchy"]
    )
    def test_campaign_visits_round_trip(self, scenario):
        universe = cached_universe(GeneratorConfig(n_sites=8), seed=11)
        config = preset(scenario).campaign_config(
            seed=11, trace=True, collect_counters=True, spans=True,
            metrics_interval_ms=50.0,
        )
        result = execute(
            CampaignPlan(universe, sim=config, pages=universe.pages[:2])
        )
        for index, paired in enumerate(result.paired_visits):
            assert paired.h2.trace and paired.h2.spans and paired.h2.metrics
            assert_round_trip(VisitOutcome.from_visits(index, paired.h2, paired.h3))


class TestMalformedRecords:
    @pytest.fixture()
    def record(self):
        return VisitOutcome.from_visits(
            0, make_visit([entry(0), entry(1)]), make_visit([entry(2)])
        ).to_record()

    def test_wrong_magic(self, record):
        with pytest.raises(ValueError, match="not a visit record"):
            VisitOutcome.from_record(b"\x00" + record[1:])

    def test_missing_rows(self, record):
        with pytest.raises((ValueError, struct.error)):
            VisitOutcome.from_record(record[:-1])
        with pytest.raises(ValueError, match="missing entry rows"):
            VisitOutcome.from_record(record[:-95])

    def test_extra_rows(self, record):
        with pytest.raises(ValueError, match="more entry rows"):
            VisitOutcome.from_record(record + record[-95:])

    def test_payload_dispatch(self, record):
        outcome = VisitOutcome.from_error(4, "boom")
        assert VisitOutcome.from_payload(outcome.to_dict()) == outcome
        assert VisitOutcome.from_payload(outcome.to_record()) == outcome
        assert VisitOutcome.from_payload(record).h2.entries[1].url.endswith("-1.js")
