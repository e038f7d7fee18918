"""Tests for the fault-injection subsystem and graceful degradation.

The two headline properties:

* **Dormancy** — with no fault profile (or an empty one), every result
  is bit-identical to a fault-free build: same visits, same traces,
  same counters.
* **Determinism under faults** — with an active profile, the same seed
  produces identical results for any worker count, including the new
  ``fault:``/``recovery:`` telemetry.
"""

import json
import math

import pytest

from repro.events import EventLoop
from repro.faults import (
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultEvent,
    FaultInjector,
    FaultProfile,
    RetryPolicy,
    stable_host_fraction,
    udp_blackhole_profile,
)
from repro.measurement import CampaignConfig, MultiCampaignPlan, execute
from repro.measurement.outcome import VisitOutcome
from repro.web.topsites import GeneratorConfig, cached_universe


@pytest.fixture(scope="module")
def universe():
    return cached_universe(GeneratorConfig(n_sites=10), seed=11)


def result_fingerprint(result) -> str:
    """A canonical, byte-exact rendering of everything a campaign made."""
    return json.dumps(
        {
            "visits": [
                (pv.probe_name, pv.page.url, pv.h2.to_dict(), pv.h3.to_dict())
                for pv in result.paired_visits
            ],
            "failures": [
                (f.page_url, f.probe_name, f.error) for f in result.failures
            ],
        },
        sort_keys=True,
    )


class TestProfile:
    def test_fault_kinds_closed_set(self):
        assert "udp_blackhole" in FAULT_KINDS
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor_strike")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="blackout", start_ms=100.0, end_ms=50.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="blackout", host_fraction=1.5)

    def test_active_window_is_half_open(self):
        event = FaultEvent(kind="blackout", start_ms=100.0, end_ms=200.0)
        assert not event.active_at(99.9)
        assert event.active_at(100.0)
        assert event.active_at(199.9)
        assert not event.active_at(200.0)

    def test_host_targeting_explicit_list(self):
        event = FaultEvent(kind="dns_failure", hosts=frozenset({"a.example"}))
        assert event.targets("a.example")
        assert not event.targets("b.example")

    def test_stable_host_fraction_is_deterministic(self):
        a = stable_host_fraction(7, "cdn.example")
        assert a == stable_host_fraction(7, "cdn.example")
        assert 0.0 <= a < 1.0
        assert a != stable_host_fraction(8, "cdn.example")

    def test_fraction_targeting_is_nested_across_intensities(self):
        """The sweep's monotonicity precondition: hosts blackholed at
        intensity f are a subset of those blackholed at f' > f."""
        hosts = [f"host{i}.example" for i in range(200)]
        salt = 0x5EED
        selected = {
            f: {h for h in hosts if stable_host_fraction(salt, h) < f}
            for f in (0.25, 0.5, 0.75)
        }
        assert selected[0.25] <= selected[0.5] <= selected[0.75]

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base_ms=100.0, backoff_cap_ms=350.0)
        assert policy.backoff_ms(0) == 100.0
        assert policy.backoff_ms(1) == 200.0
        assert policy.backoff_ms(2) == 350.0  # capped, not 400
        assert policy.backoff_ms(10) == 350.0

    def test_presets_registry(self):
        assert set(FAULT_PROFILES) >= {
            "udp-blocked", "flaky-link", "edge-outage",
            "dns-flaky", "reset-storm", "no-0rtt",
        }
        for name, profile in FAULT_PROFILES.items():
            assert isinstance(profile, FaultProfile)
            assert not profile.is_empty, name
            assert profile.kinds() <= FAULT_KINDS


class TestInjector:
    def test_windows_are_visit_relative(self):
        loop = EventLoop()
        profile = FaultProfile(
            events=(FaultEvent(kind="blackout", start_ms=0.0, end_ms=100.0),)
        )
        injector = FaultInjector(profile, loop)
        injector.begin_visit()
        assert injector.blackout("x.example")
        loop.call_later(150.0, lambda: None)
        loop.run()
        assert not injector.blackout("x.example")
        injector.begin_visit()  # re-anchor: window reopens
        assert injector.blackout("x.example")

    def test_udp_blackhole_hits_quic_only(self):
        loop = EventLoop()
        injector = FaultInjector(udp_blackhole_profile(1.0), loop)
        injector.begin_visit()
        assert injector.packet_dropped("x.example", quic=True)
        assert not injector.packet_dropped("x.example", quic=False)

    def test_connection_reset_at_earliest_pending_window(self):
        loop = EventLoop()
        profile = FaultProfile(
            events=(
                FaultEvent(kind="connection_reset", start_ms=500.0, end_ms=600.0),
                FaultEvent(kind="connection_reset", start_ms=200.0, end_ms=300.0),
            )
        )
        injector = FaultInjector(profile, loop)
        injector.begin_visit()
        assert injector.connection_reset_at("x.example") == 200.0
        loop.call_later(250.0, lambda: None)
        loop.run()
        assert injector.connection_reset_at("x.example") == 250.0  # now
        loop.call_later(200.0, lambda: None)
        loop.run()  # now 450: first window closed, second pending
        assert injector.connection_reset_at("x.example") == 500.0

    def test_empty_profile_answers_falsy(self):
        injector = FaultInjector(FaultProfile(), EventLoop())
        injector.begin_visit()
        assert not injector.blackout("x.example")
        assert not injector.udp_blackholed("x.example")
        assert injector.connection_reset_at("x.example") is None


class TestOutcome:
    def test_round_trip(self):
        outcome = VisitOutcome.from_error(3, "SimulationError: stalled")
        again = VisitOutcome.from_dict(outcome.to_dict())
        assert again == outcome

    def test_status_validation(self):
        with pytest.raises(ValueError, match="status"):
            VisitOutcome(page_index=0, status="sideways")
        with pytest.raises(ValueError, match="carries no visits"):
            VisitOutcome(page_index=0, status="failed", error="x", h2=object())
        with pytest.raises(ValueError, match="needs both visits"):
            VisitOutcome(page_index=0, status="ok")

    def test_format_check(self):
        with pytest.raises(ValueError, match="format"):
            VisitOutcome.from_dict({"format": "something/9"})


class TestDormancy:
    """No profile active ⇒ bit-identical to a fault-free build."""

    def test_empty_profile_matches_none(self, universe):
        pages = universe.pages[:3]
        configs = {
            "none": CampaignConfig(seed=3, collect_counters=True, trace=True),
            "empty": CampaignConfig(
                seed=3, collect_counters=True, trace=True,
                fault_profile=FaultProfile(name="empty"),
            ),
        }
        results = execute(MultiCampaignPlan(universe, configs, pages=pages))
        assert result_fingerprint(results["none"]) == result_fingerprint(
            results["empty"]
        )
        assert (
            results["none"].counter_totals().to_dict()
            == results["empty"].counter_totals().to_dict()
        )


class TestDeterminismUnderFaults:
    def test_workers_do_not_change_faulted_results(self, universe):
        pages = universe.pages[:3]
        config = CampaignConfig(
            seed=3, collect_counters=True, trace=True,
            fault_profile=udp_blackhole_profile(1.0),
        )
        serial = execute(MultiCampaignPlan(
            universe, {"c": config}, pages=pages, workers=1
        ))["c"]
        parallel = execute(MultiCampaignPlan(
            universe, {"c": config}, pages=pages, workers=3
        ))["c"]
        assert result_fingerprint(serial) == result_fingerprint(parallel)
        assert (
            serial.counter_totals().to_dict()
            == parallel.counter_totals().to_dict()
        )
        assert list(serial.trace_events()) == list(parallel.trace_events())

    def test_same_seed_same_profile_reproduces(self, universe):
        pages = universe.pages[:2]
        config = CampaignConfig(seed=9, fault_profile=FAULT_PROFILES["flaky-link"])
        first = execute(MultiCampaignPlan(universe, {"c": config}, pages=pages))["c"]
        second = execute(MultiCampaignPlan(universe, {"c": config}, pages=pages))["c"]
        assert result_fingerprint(first) == result_fingerprint(second)


class TestUdpBlockedFallback:
    """The acceptance scenario: full UDP blackholing, zero hung visits."""

    @pytest.fixture(scope="class")
    def faulted(self, universe):
        config = CampaignConfig(
            seed=3, collect_counters=True,
            fault_profile=udp_blackhole_profile(1.0),
        )
        return execute(MultiCampaignPlan(
            universe, {"c": config}, pages=universe.pages[:4]
        ))["c"]

    def test_every_visit_completes(self, faulted):
        assert len(faulted.paired_visits) == 4
        assert not faulted.failures
        for pv in faulted.paired_visits:
            assert math.isfinite(pv.h2.plt_ms) and pv.h2.plt_ms > 0
            assert math.isfinite(pv.h3.plt_ms) and pv.h3.plt_ms > 0

    def test_no_entry_served_over_h3(self, faulted):
        protocols = {e.protocol for e in faulted.entries("h3-enabled")}
        assert "h3" not in protocols
        assert protocols <= {"h2", "http/1.1"}

    def test_visits_marked_degraded(self, faulted):
        assert len(faulted.degraded_visits()) == len(faulted.paired_visits)
        for pv in faulted.paired_visits:
            assert pv.h3.status == "degraded"
            assert pv.h2.status == "ok"  # TCP lane untouched by UDP faults

    def test_fallback_telemetry_recorded(self, faulted):
        counters = faulted.counter_totals().to_dict()["counters"]
        assert counters["recovery.h3_fallback"] > 0
        assert counters["recovery.connect_timeout"] > 0
        assert counters["faults.udp_blackhole"] > 0
        assert counters["pool.h3_fallbacks"] == counters["recovery.h3_fallback"]

    def test_h2_lane_matches_fault_free_run(self, universe, faulted):
        """UDP blackholing must not perturb the pure-TCP H2 lane."""
        clean = execute(MultiCampaignPlan(
            universe, {"c": CampaignConfig(seed=3, collect_counters=True)},
            pages=universe.pages[:4]
        ))["c"]
        for faulted_pv, clean_pv in zip(faulted.paired_visits, clean.paired_visits):
            assert faulted_pv.h2.to_dict() == clean_pv.h2.to_dict()


class TestFallbackSweep:
    def test_fallback_rate_is_monotone_and_inverts(self, universe):
        from repro.core.fallback import (
            edge_inverts,
            fallback_rates_are_monotone,
            fallback_sweep,
        )

        points = fallback_sweep(
            MultiCampaignPlan(universe, pages=universe.pages[:4]),
            intensities=(0.0, 0.5, 1.0),
            seed=3,
        )
        assert [p.intensity for p in points] == [0.0, 0.5, 1.0]
        assert points[0].fallback_rate < 0.05  # essentially no fallback
        assert points[-1].fallback_rate == 1.0
        assert fallback_rates_are_monotone(points)
        assert edge_inverts(points)
