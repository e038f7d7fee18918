"""Tests for the ``repro.check`` invariant subsystem and the bug sweep.

Three layers of coverage:

* the checker machinery itself (context modes, the null object, the
  congestion-controller proxy, the event-loop monotonicity hook);
* strict mode end to end — a strict campaign runs violation-free, is
  bit-identical to a non-strict run, and the full experiment registry
  passes under strict;
* regression tests for the latent bugs the checker flushed out (DNS
  latency misattribution, ``PoolStats`` merge drift, ``cdf_series``
  division by zero, HAR deserialization of negative phases, loss-sweep
  config derivation).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    NULL_CHECK,
    CheckContext,
    CheckedController,
    InvariantViolation,
    NullCheck,
    Violation,
)
from repro.events import EventLoop, ScheduledEvent, Timer
from repro.faults import FAULT_PROFILES
from repro.browser import HarLog, PageVisit
from repro.browser.browser import H3_ENABLED
from repro.check.visit import check_visit
from repro.http import ConnectionPool, PoolStats
from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    ConsecutivePlan,
    MultiCampaignPlan,
    execute,
)
from repro.measurement.probe import Probe
from repro.transport.congestion import NewRenoController
from repro.web.topsites import GeneratorConfig, cached_universe


@pytest.fixture(scope="module")
def universe():
    return cached_universe(GeneratorConfig(n_sites=8), seed=11)


def fingerprint(result) -> str:
    return json.dumps(
        [
            (pv.probe_name, pv.page.url, pv.h2.to_dict(), pv.h3.to_dict())
            for pv in result.paired_visits
        ],
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# The checker machinery
# ---------------------------------------------------------------------------


class TestCheckContext:
    def test_raise_mode_raises_on_violation(self):
        check = CheckContext()
        check.require(True, "x:ok", "fine")
        with pytest.raises(InvariantViolation) as excinfo:
            check.require(False, "x:bad", "broke", time_ms=4.5, value=3)
        violation = excinfo.value.violation
        assert violation.invariant == "x:bad"
        assert violation.time_ms == 4.5
        assert violation.data == {"value": 3}

    def test_collect_mode_accumulates(self):
        check = CheckContext(mode="collect")
        check.require(False, "x:first", "one")
        check.require(True, "x:ok", "fine")
        check.require(False, "x:second", "two")
        assert not check.ok
        assert [v.invariant for v in check.violations] == ["x:first", "x:second"]
        assert check.checks_run == 3
        assert len(check.render()) == 2

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CheckContext(mode="explode")

    def test_violation_renders_context(self):
        violation = Violation("pool:thing", "went wrong", time_ms=12.0,
                              data={"url": "u"})
        text = str(violation)
        assert "[pool:thing]" in text
        assert "t=12.000ms" in text
        assert "went wrong" in text

    def test_invariant_violation_is_assertion_error(self):
        check = CheckContext()
        with pytest.raises(AssertionError):
            check.fail("x:bad", "boom")

    def test_null_check_is_falsy_noop(self):
        assert not NULL_CHECK
        assert isinstance(NULL_CHECK, NullCheck)
        # Both entry points swallow everything silently.
        NULL_CHECK.require(False, "x:bad", "ignored")
        NULL_CHECK.fail("x:bad", "ignored")

    def test_checks_run_counts_passes_too(self):
        check = CheckContext()
        for _ in range(5):
            check.require(True, "x:ok", "fine")
        assert check.checks_run == 5
        assert check.ok


class _BrokenController:
    """A deliberately buggy controller to prove the proxy fires."""

    def __init__(self, mss=1200, ack_shrinks=False, loss_grows=False,
                 ssthresh_above=False, below_floor=False):
        self.mss = mss
        self._cwnd = 10 * mss
        self._ssthresh = None
        self.ack_shrinks = ack_shrinks
        self.loss_grows = loss_grows
        self.ssthresh_above = ssthresh_above
        self.below_floor = below_floor

    @property
    def cwnd_bytes(self):
        return int(self._cwnd)

    @property
    def ssthresh_bytes(self):
        return self._ssthresh

    @property
    def in_slow_start(self):
        return self._ssthresh is None

    def on_ack(self, acked_bytes, now_ms):
        if self.ack_shrinks:
            self._cwnd -= acked_bytes
        else:
            self._cwnd += acked_bytes

    def on_loss(self, now_ms):
        if self.loss_grows:
            self._cwnd *= 2
        elif self.ssthresh_above:
            self._ssthresh = self._cwnd * 4
            self._cwnd /= 2
        elif self.below_floor:
            self._cwnd = 0
        else:
            self._ssthresh = self._cwnd / 2
            self._cwnd /= 2

    def on_rto(self, now_ms):
        self.on_loss(now_ms)


class TestCheckedController:
    def wrap(self, **flags):
        inner = _BrokenController(**flags)
        return CheckedController(inner, CheckContext(), inner.mss)

    def test_ack_shrinking_cwnd_fires(self):
        cc = self.wrap(ack_shrinks=True)
        with pytest.raises(InvariantViolation, match="cc:ack_monotone"):
            cc.on_ack(1200, 1.0)

    def test_loss_growing_cwnd_fires(self):
        cc = self.wrap(loss_grows=True)
        with pytest.raises(InvariantViolation, match="cc:congestion_response"):
            cc.on_loss(1.0)

    def test_ssthresh_above_window_fires(self):
        cc = self.wrap(ssthresh_above=True)
        with pytest.raises(InvariantViolation, match="cc:ssthresh_shrinks"):
            cc.on_loss(1.0)

    def test_cwnd_floor_fires(self):
        cc = self.wrap(below_floor=True)
        with pytest.raises(InvariantViolation, match="cc:cwnd_floor"):
            cc.on_rto(1.0)

    def test_well_behaved_controller_passes(self):
        inner = NewRenoController(mss=1200)
        check = CheckContext()
        cc = CheckedController(inner, check, 1200)
        for i in range(20):
            cc.on_ack(1200, float(i))
        cc.on_loss(21.0)
        for i in range(20):
            cc.on_ack(1200, 22.0 + i)
        cc.on_rto(50.0)
        assert check.ok
        assert check.checks_run > 0

    def test_delegates_untouched_attributes(self):
        inner = NewRenoController(mss=1200)
        cc = CheckedController(inner, CheckContext(), 1200)
        assert cc.cwnd_bytes == inner.cwnd_bytes
        assert cc.in_slow_start is inner.in_slow_start
        assert cc.loss_events == 0
        assert "NewReno" in repr(cc)


class TestLoopMonotonicity:
    def test_corrupted_heap_fires(self):
        """An event stamped in the past (behind call_later's back) is
        caught at pop time.  White-box: injects directly into the heap
        scheduler's queue (the C kernel shares the same check via
        test_every_pop_is_checked below)."""
        import heapq

        from repro.events.loop import HeapEventLoop

        loop = HeapEventLoop()
        loop.set_check(CheckContext())
        loop.call_later(10.0, lambda: None)
        loop.run()
        assert loop.now == 10.0
        # Bypass the scheduling guards: push a past-dated event directly.
        rogue = ScheduledEvent(5.0, 10_000, lambda: None, (), loop)
        heapq.heappush(loop._queue, rogue)
        loop._live += 1
        with pytest.raises(InvariantViolation, match="loop:time_monotonic"):
            loop.run()

    def test_step_checks_too(self):
        import heapq

        from repro.events.loop import HeapEventLoop

        loop = HeapEventLoop()
        loop.set_check(CheckContext())
        loop.call_later(10.0, lambda: None)
        while loop.step():
            pass
        rogue = ScheduledEvent(5.0, 10_000, lambda: None, (), loop)
        heapq.heappush(loop._queue, rogue)
        loop._live += 1
        with pytest.raises(InvariantViolation, match="loop:time_monotonic"):
            loop.step()

    def test_every_pop_is_checked(self):
        """All schedulers (including the C kernel, which cannot be
        corrupted from Python) route every pop through check.require
        with the monotonicity verdict."""

        class RecordingCheck:
            def __init__(self):
                self.calls = []

            def require(self, condition, invariant, message, **data):
                self.calls.append((condition, invariant, data))

        loop = EventLoop()
        check = RecordingCheck()
        loop.set_check(check)
        loop.call_later(1.0, lambda: None)
        loop.call_later(2.0, lambda: None)
        loop.run()
        assert [c[0] for c in check.calls] == [True, True]
        assert {c[1] for c in check.calls} == {"loop:time_monotonic"}
        assert check.calls[1][2]["time_ms"] == 1.0
        assert check.calls[1][2]["event_time_ms"] == 2.0

    def test_set_check_with_null_clears(self):
        loop = EventLoop()
        loop.set_check(NULL_CHECK)
        assert loop._check is None
        check = CheckContext()
        loop.set_check(check)
        assert loop._check is check
        loop.set_check(None)
        assert loop._check is None

    def test_normal_run_is_clean(self):
        loop = EventLoop()
        check = CheckContext()
        loop.set_check(check)
        for i in range(10):
            loop.call_later(float(i), lambda: None)
        loop.run()
        assert check.ok
        assert check.checks_run == 10


# ---------------------------------------------------------------------------
# Strict mode end to end
# ---------------------------------------------------------------------------


class TestStrictCampaign:
    def test_strict_campaign_runs_clean(self, universe):
        config = CampaignConfig(strict=True, seed=3)
        result = execute(CampaignPlan(universe, sim=config, pages=universe.pages[:4]))
        assert len(result.paired_visits) == 4
        assert not result.failures

    def test_strict_is_bit_identical_to_off(self, universe):
        pages = universe.pages[:4]
        on = execute(CampaignPlan(
            universe, sim=CampaignConfig(strict=True, seed=3), pages=pages
        ))
        off = execute(CampaignPlan(
            universe, sim=CampaignConfig(strict=False, seed=3), pages=pages
        ))
        assert fingerprint(on) == fingerprint(off)

    @pytest.mark.parametrize("profile", ["udp-blocked", "flaky-link",
                                         "dns-flaky", "reset-storm"])
    def test_strict_under_faults_runs_clean(self, universe, profile):
        config = CampaignConfig(
            strict=True, seed=3, fault_profile=FAULT_PROFILES[profile]
        )
        result = execute(CampaignPlan(universe, sim=config, pages=universe.pages[:3]))
        assert len(result.paired_visits) == 3

    def test_strict_does_not_perturb_faulted_results(self, universe):
        pages = universe.pages[:3]
        profile = FAULT_PROFILES["flaky-link"]
        on = execute(CampaignPlan(
            universe, sim=CampaignConfig(strict=True, seed=3, fault_profile=profile),
            pages=pages
        ))
        off = execute(CampaignPlan(
            universe, sim=CampaignConfig(strict=False, seed=3, fault_profile=profile),
            pages=pages
        ))
        assert fingerprint(on) == fingerprint(off)

    def test_request_accounting_holds_under_fault_recovery(self):
        """A fetch fault recovery re-dispatches counts as reused once."""
        from repro.scenario import preset

        universe = cached_universe(GeneratorConfig(n_sites=8), seed=11)
        config = (
            preset("lossy")
            .with_proxy("masque-relay")
            .with_faults("nat-rebind")
            .with_strict()
            .campaign_config(seed=11)
        )
        result = execute(
            CampaignPlan(universe, sim=config, pages=universe.pages[:3])
        )
        stats = [
            visit.pool_stats
            for paired in result.paired_visits
            for visit in (paired.h2, paired.h3)
        ]
        assert any(s.retried_requests or s.migration_reconnects for s in stats)
        for s in stats:
            assert s.reused_requests + s.failed_requests <= s.requests

    def test_strict_consecutive_runner(self, universe):
        h2_run, h3_run = execute(ConsecutivePlan(
            universe, pages=universe.pages[:3],
            sim=CampaignConfig(seed=5, strict=True),
        ))
        assert len(h2_run.visits) == len(h3_run.visits) == 3


class TestPoolCounterChecks:
    """Each pool-counter invariant is checked once per visit, over every
    ``PoolStats`` field."""

    def test_request_accounting_violation_recorded_once(
        self, universe, monkeypatch
    ):
        close = ConnectionPool.close

        def tampered_close(pool):
            pool.stats.reused_requests += 1
            close(pool)

        monkeypatch.setattr(ConnectionPool, "close", tampered_close)
        check = CheckContext(mode="collect")
        probe = Probe("tampered", universe, seed=3, check=check)
        probe.visit_once(universe.pages[0], H3_ENABLED)
        assert [v.invariant for v in check.violations] == [
            "pool:request_accounting"
        ]

    def test_negative_proxy_cache_hits_reported(self):
        check = CheckContext(mode="collect")
        visit = PageVisit(
            page_url="https://a.example/",
            protocol_mode=H3_ENABLED,
            har=HarLog(page_url="https://a.example/"),
            plt_ms=0.0,
            pool_stats=PoolStats(proxy_cache_hits=-1),
        )
        check_visit(check, visit, faults_active=False)
        assert [
            (v.invariant, v.data["counter"]) for v in check.violations
        ] == [("pool:counter_nonnegative", "proxy_cache_hits")]


class TestStrictRegistry:
    """The acceptance gate: every registry experiment under --strict."""

    def test_all_experiments_pass_under_strict(self):
        from repro.core import H3CdnStudy, StudyConfig
        from repro.experiments import EXPERIMENTS, run_experiment
        from repro.scenario import Scenario

        scenario = Scenario(name="paper-default").with_strict()
        study = H3CdnStudy(
            StudyConfig(
                n_sites=12,
                seed=3,
                campaign_config=scenario.campaign_config(),
                max_campaign_pages=6,
                max_consecutive_pages=6,
                max_loss_sweep_pages=3,
            )
        )
        for experiment_id in EXPERIMENTS:
            result = run_experiment(experiment_id, study)
            assert result.data, experiment_id


class TestStrictWiring:
    def test_scenario_with_strict(self):
        from repro.scenario import Scenario

        scenario = Scenario(name="s")
        assert not scenario.config.strict
        strict = scenario.with_strict()
        assert strict.config.strict
        assert strict.campaign_config().strict
        assert not scenario.campaign_config().strict
        assert not strict.with_strict(False).config.strict

    def test_cli_strict_flag_threads_into_study(self):
        from repro.experiments.cli import build_parser, make_study

        args = build_parser().parse_args(["--scale", "smoke", "--strict"])
        assert make_study(args).config.campaign_config.strict
        args = build_parser().parse_args(["--scale", "smoke"])
        assert not make_study(args).config.campaign_config.strict


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


class TestTimerReentrancy:
    """``Timer._fire`` clears its event *before* the callback, so a
    callback that re-arms the timer must not have its fresh deadline
    clobbered (and ``armed`` must stay truthful throughout)."""

    def test_rearm_from_callback_fires_again(self):
        loop = EventLoop()
        fired = []

        def on_fire():
            fired.append(loop.now)
            if len(fired) == 1:
                timer.start(5.0)
                assert timer.armed

        timer = Timer(loop, on_fire)
        timer.start(10.0)
        loop.run()
        assert fired == [10.0, 15.0]
        assert not timer.armed

    def test_armed_is_false_inside_callback_without_rearm(self):
        loop = EventLoop()
        states = []
        timer = Timer(loop, lambda: states.append(timer.armed))
        timer.start(1.0)
        loop.run()
        assert states == [False]

    def test_stop_from_callback_is_safe(self):
        loop = EventLoop()
        fired = []

        def on_fire():
            fired.append(loop.now)
            timer.stop()  # stopping an already-fired timer: no-op

        timer = Timer(loop, on_fire)
        timer.start(2.0)
        loop.run()
        assert fired == [2.0]
        assert not timer.armed


class TestHarNegativePhaseClamp:
    def test_from_dict_clamps_negative_phases(self):
        from repro.browser.har import HarLog

        log = HarLog(page_url="https://x/")
        payload = log.to_dict()
        payload["log"]["entries"] = [
            {
                "startedDateTime": 0.0,
                "time": 10.0,
                "request": {"method": "GET", "url": "https://x/a",
                            "headersSize": 100, "bodySize": 0},
                "response": {"status": 200, "httpVersion": "h2",
                             "headers": [], "bodySize": 1000},
                "timings": {"blocked": 1.0, "dns": -3.0, "connect": 2.0,
                            "ssl": 1.0, "send": 0.1, "wait": -0.5,
                            "receive": 4.0},
            }
        ]
        restored = HarLog.from_dict(payload)
        timings = restored.entries[0].timings
        assert timings.dns == 0.0
        assert timings.wait == 0.0
        assert timings.blocked == 1.0
        assert timings.receive == 4.0


class TestPoolStatsMerge:
    FIELDS = (
        "requests", "connections_created", "resumed_connections",
        "reused_requests", "zero_rtt_connections", "failed_requests",
        "retried_requests", "h3_fallbacks", "connect_timeouts",
        "connection_resets",
    )

    @staticmethod
    def random_stats(rng):
        return PoolStats(**{
            name: rng.randrange(0, 50) for name in TestPoolStatsMerge.FIELDS
        })

    def test_merge_covers_every_field(self):
        """The drift bug: a merge written field-by-field silently drops
        counters added later.  Summing 1s over all fields proves every
        dataclass field participates."""
        ones = PoolStats(**{name: 1 for name in self.FIELDS})
        merged = ones.merged_with(ones)
        for name in self.FIELDS:
            assert getattr(merged, name) == 2, name

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_merge_associative_and_commutative(self, seed):
        rng = random.Random(seed)
        a, b, c = (self.random_stats(rng) for _ in range(3))
        assert a.merged_with(b) == b.merged_with(a)
        assert a.merged_with(b).merged_with(c) == a.merged_with(
            b.merged_with(c)
        )

    def test_merge_identity(self):
        rng = random.Random(5)
        stats = self.random_stats(rng)
        assert stats.merged_with(PoolStats()) == stats

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_dict_round_trip(self, seed):
        rng = random.Random(seed)
        stats = self.random_stats(rng)
        assert PoolStats.from_dict(stats.to_dict()) == stats

    def test_fault_free_payload_omits_fault_fields(self):
        stats = PoolStats(requests=3, connections_created=1)
        payload = stats.to_dict()
        assert "failedRequests" not in payload
        assert PoolStats.from_dict(payload) == stats


class TestCdfSeriesEdgeCases:
    def make(self, values):
        from repro.analysis.stats import EmpiricalDistribution

        return EmpiricalDistribution(values)

    def test_single_point_no_longer_divides_by_zero(self):
        dist = self.make([1.0, 2.0, 3.0])
        assert dist.cdf_series(points=1) == [(3.0, 1.0)]

    def test_points_below_one_rejected(self):
        dist = self.make([1.0, 2.0])
        with pytest.raises(ValueError, match="points must be >= 1"):
            dist.cdf_series(points=0)

    def test_degenerate_distribution_unchanged(self):
        dist = self.make([5.0, 5.0, 5.0])
        assert dist.cdf_series(points=100) == [(5.0, 1.0)]

    def test_two_points_span_range(self):
        dist = self.make([0.0, 10.0])
        series = dist.cdf_series(points=2)
        assert series[0][0] == 0.0
        assert series[-1][0] == 10.0

    def test_ccdf_single_point(self):
        dist = self.make([1.0, 4.0])
        series = dist.ccdf_series(points=1)
        assert len(series) == 1


class TestDnsLatencyAttribution:
    def test_coalesced_waiter_billed_its_own_elapsed(self):
        """A caller that joins an in-flight lookup later must be
        reported *its* elapsed time, not the first caller's."""
        from repro.dns import DnsConfig, DnsResolver

        loop = EventLoop()
        resolver = DnsResolver(
            loop, DnsConfig(resolver_rtt_ms=12.0, recursive_hit_rate=1.0),
            rng=random.Random(1),
        )
        latencies = {}
        resolver.resolve("cdn.example", lambda ms: latencies.__setitem__("a", ms))
        loop.call_later(
            5.0,
            lambda: resolver.resolve(
                "cdn.example", lambda ms: latencies.__setitem__("b", ms)
            ),
        )
        loop.run()
        assert resolver.lookups_sent == 1  # still coalesced
        assert latencies["a"] == pytest.approx(12.0)
        assert latencies["b"] == pytest.approx(7.0)

    def test_retried_lookup_phases_still_sum(self, universe):
        """With dns-flaky faults, a retried resolution must report the
        whole span (failed attempts + backoff), or the entry's phases
        no longer sum to its total time."""
        config = CampaignConfig(seed=3, fault_profile=FAULT_PROFILES["dns-flaky"])
        result = execute(CampaignPlan(universe, sim=config, pages=universe.pages[:4]))
        retried = 0
        for paired in result.paired_visits:
            for visit in (paired.h2, paired.h3):
                for entry in visit.har.entries:
                    assert abs(entry.timings.total - entry.time_ms) < 1e-6, (
                        entry.url
                    )
                    if entry.timings.dns > 0.0:
                        retried += 1
        assert retried  # the fault window actually exercised DNS paths


class TestLossSweepConfigDerivation:
    def test_derived_configs_preserve_every_knob(self, universe, monkeypatch):
        """The old field-by-field copy silently dropped fault_profile,
        collect_counters, trace and strict from the per-rate configs."""
        from repro.core import congestion as congestion_mod

        captured = {}

        class _Captured(Exception):
            pass

        def fake_execute(plan):
            captured.update(plan.configs)
            raise _Captured  # config derivation is all this test needs

        monkeypatch.setattr(congestion_mod, "execute", fake_execute)
        base = CampaignConfig(
            collect_counters=True, trace=True, strict=True,
            fault_profile=FAULT_PROFILES["no-0rtt"],
        )
        with pytest.raises(_Captured):
            congestion_mod.loss_sweep(
                MultiCampaignPlan(universe, pages=universe.pages[:2]),
                loss_rates=(0.0, 0.01), seed=9, repetitions=2,
                campaign_config=base,
            )
        assert len(captured) == 4
        for (loss_rate, repetition), config in captured.items():
            assert config.loss_rate == loss_rate
            assert config.seed == 9 + repetition
            assert config.collect_counters
            assert config.trace
            assert config.strict
            assert config.fault_profile is base.fault_profile


class TestDeterminismUnderLoss:
    """Loss-model state must not leak across retries or workers: the
    same seed gives identical results for any worker count, with netem
    loss and a fault profile active at once."""

    def test_workers_do_not_change_lossy_faulted_results(self, universe):
        pages = universe.pages[:3]
        config = CampaignConfig(
            seed=3, loss_rate=0.01,
            fault_profile=FAULT_PROFILES["flaky-link"],
        )
        serial = execute(MultiCampaignPlan(
            universe, {"c": config}, pages=pages, workers=1
        ))["c"]
        parallel = execute(MultiCampaignPlan(
            universe, {"c": config}, pages=pages, workers=4
        ))["c"]
        assert fingerprint(serial) == fingerprint(parallel)

    def test_lossy_run_reproduces_exactly(self, universe):
        pages = universe.pages[:3]
        config = CampaignConfig(seed=5, loss_rate=0.01)
        first = execute(CampaignPlan(universe, sim=config, pages=pages))
        second = execute(CampaignPlan(universe, sim=config, pages=pages))
        assert fingerprint(first) == fingerprint(second)


# ---------------------------------------------------------------------------
# The differential validator
# ---------------------------------------------------------------------------


class TestHarVsTrace:
    @pytest.fixture(scope="class")
    def documents(self, universe):
        config = CampaignConfig(trace=True, collect_counters=True, seed=7)
        result = execute(CampaignPlan(universe, sim=config, pages=universe.pages[:3]))
        documents = []
        for paired in result.paired_visits:
            documents.append(paired.h2.to_dict())
            documents.append(paired.h3.to_dict())
        return documents

    def test_clean_campaign_cross_checks(self, documents):
        from repro.check.har_vs_trace import validate_documents

        checked, discrepancies = validate_documents(documents)
        assert checked == 6
        assert discrepancies == []

    def test_tampered_wait_detected(self, documents):
        from repro.check.har_vs_trace import compare_visit

        tampered = json.loads(json.dumps(documents[0]))
        tampered["har"]["log"]["entries"][0]["timings"]["wait"] += 5.0
        assert compare_visit(tampered)

    def test_dropped_stream_detected(self, documents):
        from repro.check.har_vs_trace import compare_visit

        tampered = json.loads(json.dumps(documents[0]))
        tampered["trace"] = [
            event for event in tampered["trace"]
            if event["name"] != "http:stream_closed"
        ]
        assert compare_visit(tampered)

    def test_missing_trace_reported(self, documents):
        from repro.check.har_vs_trace import compare_visit

        stripped = dict(documents[0])
        stripped.pop("trace")
        assert compare_visit(stripped)

    def test_cli_self_run_is_clean(self, capsys):
        from repro.check.har_vs_trace import main

        assert main(["--sites", "6", "--pages", "2", "--seed", "7"]) == 0
        assert "cross-checked, clean" in capsys.readouterr().out
