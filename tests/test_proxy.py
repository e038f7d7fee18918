"""Proxy topologies and QUIC connection migration.

The contracts under test:

* **SegmentedPath** — a multi-hop chain forwards packets segment by
  segment, charges every segment's latency, accounts delivered bytes at
  the client NIC, and is never eligible for the analytic fast path.
* **Proxy models** — a CONNECT tunnel terminates TCP (H3 downgrades at
  the proxy, zero H3 served), a MASQUE relay passes QUIC end-to-end.
* **Migration faults** — a mid-visit address change makes QUIC
  connections migrate (connection IDs survive) while TCP connections
  tear down and reconnect.
* **Determinism** — proxied campaigns, with or without migration
  faults, are bit-identical for any worker count and replay
  bit-identically from a warm store; the proxy config is part of the
  visit key, so proxied and direct visits never collide.
"""

import json

import pytest

from repro.events import EventLoop
from repro.faults import (
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultInjector,
    MIGRATION_KINDS,
    migration_profile,
)
from repro.measurement import (
    CampaignConfig,
    CampaignPlan,
    MultiCampaignPlan,
    execute,
)
from repro.netsim import NetemProfile, PROXY_MODELS, ProxyConfig, SegmentedPath
from repro.scenario import Scenario
from repro.store import ResultStore, paired_visit_key, visit_config_part
from repro.web.topsites import GeneratorConfig, cached_universe

from tests.test_faults import result_fingerprint


@pytest.fixture(scope="module")
def universe():
    return cached_universe(GeneratorConfig(n_sites=8), seed=11)


def make_segmented(loop, models=None, **kwargs):
    segments = (
        NetemProfile(delay_ms=5.0, rate_mbps=None),
        NetemProfile(delay_ms=20.0, rate_mbps=None),
    )
    return SegmentedPath(loop, segments, **kwargs)


class TestProxyConfig:
    def test_models_closed_set(self):
        assert PROXY_MODELS == ("connect-tunnel", "masque-relay")
        with pytest.raises(ValueError, match="model must be one of"):
            ProxyConfig(model="socks5")

    def test_h3_passthrough_by_model(self):
        assert not ProxyConfig(model="connect-tunnel").h3_passthrough
        assert ProxyConfig(model="masque-relay").h3_passthrough

    def test_forward_delay_validation(self):
        with pytest.raises(ValueError):
            ProxyConfig(forward_delay_ms=-1.0)


class TestSegmentedPath:
    def test_requires_two_segments(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match=">= 2 segments"):
            SegmentedPath(loop, (NetemProfile(delay_ms=5.0),))

    def test_rtt_sums_segments_and_forward_delay(self):
        loop = EventLoop()
        path = make_segmented(loop, forward_delay_ms=3.0)
        # 2*(5+20) segment latency + 2*3 relay forwarding.
        assert path.rtt_ms == pytest.approx(56.0)

    def test_never_fast_path_eligible(self):
        loop = EventLoop()
        assert make_segmented(loop).fast_path_eligible is False

    def test_round_trip_charges_every_segment(self):
        class Packet:
            size_bytes = 100

        loop = EventLoop()
        path = make_segmented(loop)
        arrivals = []
        path.send_to_server(Packet(), lambda pkt: arrivals.append(loop.now))
        loop.run()
        # One-way through both segments: 5 + 20 ms.
        assert arrivals == [pytest.approx(25.0)]
        path2 = make_segmented(EventLoop(), forward_delay_ms=2.0)
        arrivals2 = []
        path2.send_to_client(Packet(), lambda pkt: arrivals2.append(path2.loop.now))
        path2.loop.run()
        # Downstream walks the chain in reverse, plus one relay hop.
        assert arrivals2 == [pytest.approx(27.0)]

    def test_h3_passthrough_follows_model(self):
        loop = EventLoop()
        tunnel = make_segmented(loop, proxy_model="connect-tunnel")
        relay = make_segmented(loop, proxy_model="masque-relay")
        bare = make_segmented(loop)
        assert tunnel.h3_passthrough is False
        assert relay.h3_passthrough is True
        assert bare.h3_passthrough is True

    def test_bytes_accounted_at_client_segment_only(self):
        loop = EventLoop()
        path = make_segmented(loop)

        class Packet:
            size_bytes = 1200

        path.send_to_server(Packet(), lambda pkt: None)
        loop.run()
        # The packet crossed both segments but the probe's NIC saw it
        # once — ethics accounting must not double-count relay hops.
        assert path.total_bytes_transferred() == 1200


class TestScenarioProxy:
    def test_with_proxy_by_model_name(self):
        scenario = Scenario(name="base").with_proxy("masque-relay")
        assert scenario.name == "base+masque-relay"
        assert scenario.proxy is not None
        config = scenario.campaign_config()
        assert config.proxy.model == "masque-relay"

    def test_with_proxy_none_goes_direct(self):
        scenario = Scenario(name="base").with_proxy("connect-tunnel")
        direct = scenario.with_proxy(None)
        assert direct.proxy is None
        assert direct.name.endswith("+direct")
        assert direct.campaign_config().proxy is None


class TestProxyInVisitKey:
    def test_proxy_changes_the_key(self):
        base = CampaignConfig(seed=3)
        tunnel = CampaignConfig(seed=3, proxy=ProxyConfig(model="connect-tunnel"))
        relay = CampaignConfig(seed=3, proxy=ProxyConfig(model="masque-relay"))
        parts = [
            json.dumps(visit_config_part(c), sort_keys=True, default=str)
            for c in (base, tunnel, relay)
        ]
        assert len(set(parts)) == 3

    def test_key_distinct_for_proxied_visit(self, universe):
        from repro.measurement import derive_seed
        from repro.measurement.vantage import default_vantage_points
        from repro.store.keys import page_part

        page = universe.pages[0]
        vantage = default_vantage_points()[0]

        def key(config):
            return paired_visit_key(
                visit_config_part(config),
                page_part(page, universe.hosts),
                vantage,
                0,
                derive_seed(config.seed, 0, 0, 0),
            )

        assert key(CampaignConfig(seed=3)) != key(
            CampaignConfig(seed=3, proxy=ProxyConfig())
        )


class TestMigrationFaults:
    def test_kinds_registered(self):
        assert set(MIGRATION_KINDS) <= set(FAULT_KINDS)
        assert "nat-rebind" in FAULT_PROFILES
        assert "wifi-to-cellular" in FAULT_PROFILES

    def test_migration_profile_validation(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            migration_profile("udp_blackhole")
        profile = migration_profile("wifi_to_cellular", at_ms=100.0, gap_ms=50.0)
        (event,) = profile.events
        assert event.kind == "wifi_to_cellular"
        assert (event.start_ms, event.end_ms) == (100.0, 150.0)

    def test_injector_schedules_migration(self):
        loop = EventLoop()
        injector = FaultInjector(
            migration_profile("nat_rebind", at_ms=200.0, gap_ms=100.0), loop
        )
        injector.begin_visit()
        fire = injector.migration_at("cdn.example")
        assert fire is not None
        at, kind = fire
        assert at == pytest.approx(200.0)
        assert kind == "nat_rebind"
        # The window has not opened yet at t=0.
        assert not injector.migration_blackout("cdn.example")

    def test_blackout_window_drops_all_packets(self):
        loop = EventLoop()
        injector = FaultInjector(
            migration_profile("nat_rebind", at_ms=0.0, gap_ms=100.0), loop
        )
        injector.begin_visit()
        assert injector.migration_blackout("cdn.example")
        assert injector.packet_dropped("cdn.example", quic=True)
        assert injector.packet_dropped("cdn.example", quic=False)


class TestMigrationCampaign:
    @pytest.fixture(scope="class")
    def relay_result(self, universe):
        config = CampaignConfig(
            seed=3, collect_counters=True, trace=True,
            proxy=ProxyConfig(model="masque-relay"),
            fault_profile=migration_profile("nat_rebind"),
        )
        return execute(MultiCampaignPlan(
            universe, {"c": config}, pages=universe.pages[:4]
        ))["c"]

    @pytest.fixture(scope="class")
    def tunnel_result(self, universe):
        config = CampaignConfig(
            seed=3, collect_counters=True, trace=True,
            proxy=ProxyConfig(model="connect-tunnel"),
            fault_profile=migration_profile("nat_rebind"),
        )
        return execute(MultiCampaignPlan(
            universe, {"c": config}, pages=universe.pages[:4]
        ))["c"]

    def test_relay_migrates_quic_and_reconnects_tcp(self, relay_result):
        counters = relay_result.counter_totals()
        assert counters.counter("pool.quic_migrations") > 0
        assert counters.counter("pool.migration_reconnects") > 0
        assert counters.counter("pool.proxy_h3_downgrades") == 0
        names = {e["name"] for e in relay_result.trace_events()}
        assert "migration:migrated" in names
        assert "migration:reconnect" in names
        assert "fault:nat_rebind" in names

    def test_relay_serves_h3(self, relay_result, universe):
        protocols = {
            e.protocol
            for e in relay_result.entries("h3-enabled")
            if universe.hosts[e.host].supports_h3
        }
        assert "h3" in protocols

    def test_tunnel_never_migrates_and_downgrades_h3(self, tunnel_result):
        counters = tunnel_result.counter_totals()
        assert counters.counter("pool.quic_migrations") == 0
        assert counters.counter("pool.migration_reconnects") > 0
        assert counters.counter("pool.proxy_h3_downgrades") > 0
        protocols = {e.protocol for e in tunnel_result.entries("h3-enabled")}
        assert "h3" not in protocols
        names = {e["name"] for e in tunnel_result.trace_events()}
        assert "proxy:h3_downgrade" in names
        assert "migration:migrated" not in names

    def test_every_visit_completes(self, relay_result, tunnel_result):
        for result in (relay_result, tunnel_result):
            assert len(result.paired_visits) == 4
            assert not result.failures


class TestProxiedDeterminism:
    def test_workers_do_not_change_proxied_results(self, universe):
        pages = universe.pages[:3]
        config = CampaignConfig(
            seed=3, collect_counters=True, trace=True,
            proxy=ProxyConfig(model="masque-relay"),
            fault_profile=migration_profile("nat_rebind"),
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

    def test_workers_do_not_change_faultfree_proxied_results(self, universe):
        pages = universe.pages[:3]
        config = CampaignConfig(seed=3, proxy=ProxyConfig(model="connect-tunnel"))
        serial = execute(MultiCampaignPlan(
            universe, {"c": config}, pages=pages, workers=1
        ))["c"]
        parallel = execute(MultiCampaignPlan(
            universe, {"c": config}, pages=pages, workers=2
        ))["c"]
        assert result_fingerprint(serial) == result_fingerprint(parallel)

    def test_warm_store_replay_with_proxy(self, universe, tmp_path):
        pages = universe.pages[:2]
        config = CampaignConfig(
            seed=3,
            proxy=ProxyConfig(model="masque-relay"),
            fault_profile=migration_profile("nat_rebind"),
        )
        with ResultStore(str(tmp_path / "st")) as store:
            fresh = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="a"
            ))
            warm = execute(CampaignPlan(
                universe, sim=config, pages=pages, store=store, run_name="b"
            ))
        assert fresh.store_stats.misses == len(pages)
        assert warm.store_stats.hits == len(pages)
        assert warm.store_stats.misses == 0
        assert result_fingerprint(warm) == result_fingerprint(fresh)

    def test_proxied_and_direct_do_not_share_cache(self, universe, tmp_path):
        pages = universe.pages[:2]
        direct = CampaignConfig(seed=3)
        proxied = CampaignConfig(seed=3, proxy=ProxyConfig(model="masque-relay"))
        with ResultStore(str(tmp_path / "st")) as store:
            execute(CampaignPlan(
                universe, sim=direct, pages=pages, store=store, run_name="a"
            ))
            second = execute(CampaignPlan(
                universe, sim=proxied, pages=pages, store=store, run_name="b"
            ))
        assert second.store_stats.hits == 0
        assert second.store_stats.misses == len(pages)


class TestFastPathExclusion:
    def test_farm_proxy_paths_are_ineligible(self, universe):
        from repro.measurement.farm import ServerFarm

        loop = EventLoop()
        farm = ServerFarm(
            loop, universe.hosts, proxy=ProxyConfig(model="masque-relay")
        )
        host = next(iter(universe.hosts))
        path = farm.path(host)
        assert isinstance(path, SegmentedPath)
        assert path.fast_path_eligible is False

    def test_migration_armed_paths_are_ineligible(self):
        from repro.faults.inject import FaultedPath
        from repro.netsim import NetworkPath

        loop = EventLoop()
        injector = FaultInjector(migration_profile("nat_rebind"), loop)
        path = NetworkPath(loop, NetemProfile(delay_ms=5.0))
        faulted = FaultedPath(path, injector, "cdn.example", quic=True)
        assert faulted.fast_path_eligible is False


class TestPoolStatsRoundtrip:
    def test_migration_fields_serialize_and_merge(self):
        from repro.http import PoolStats

        stats = PoolStats(
            quic_migrations=2, migration_reconnects=3, proxy_h3_downgrades=1
        )
        raw = stats.to_dict()
        assert raw["quicMigrations"] == 2
        assert raw["migrationReconnects"] == 3
        assert raw["proxyH3Downgrades"] == 1
        assert PoolStats.from_dict(raw) == stats
        merged = stats.merged_with(PoolStats(quic_migrations=5))
        assert merged.quic_migrations == 7
        assert merged.migration_reconnects == 3

    def test_migration_free_payload_unchanged(self):
        from repro.http import PoolStats

        raw = PoolStats(requests=4).to_dict()
        assert "quicMigrations" not in raw
        assert "migrationReconnects" not in raw
        assert "proxyH3Downgrades" not in raw
