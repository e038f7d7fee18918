"""The cache-hierarchy subsystem: tiers, compression, economics, dormancy.

The contracts under test:

* **TierChain** — lookups walk outward from the edge, fill-on-read
  copies the object into every tier it missed, and the reported fetch
  latency/hop count reflect exactly the tiers traversed.
* **Compression negotiation** — hash-derived identity selection is
  deterministic and nested across attack ratios, so the amplification
  factor is monotone by construction; negotiation honours the
  provider's conversion policy and never 406s.
* **Economics** — per-request deltas conserve bytes (egress =
  cache-served + transfer), ledgers merge associatively, and the
  counter round-trip reconstructs the ledger.
* **Dormancy** — a default campaign never sees the subsystem: store
  keys keep schema v2 with a pinned config hash, edges keep the legacy
  flat-LRU serve arithmetic, and no ``economics.*`` counters appear.
* **Determinism** — hierarchy+compression campaigns are bit-identical
  for any worker count, replay bit-identically from a warm store, and
  run green under ``strict``.
* **Proxy cache** — a CONNECT tunnel with ``cache_mb`` serves repeat
  fetches from the proxy and counts them; a MASQUE relay never caches.
"""

import pytest

from repro.cdn.classifier import DictClassifier, classifier_disagreement
from repro.cdn.compression import (
    CompressionConfig,
    CompressionPolicy,
    client_accept_encoding,
    encoded_size,
    negotiate,
    provider_policy,
    wants_identity,
)
from repro.cdn.economics import EconomicsDelta, EconomicsLedger, LEDGER_FIELDS
from repro.cdn.edge import EdgeServer
from repro.cdn.hierarchy import (
    DEFAULT_HIERARCHY,
    HIERARCHY_PRESETS,
    HierarchyConfig,
    TierChain,
    TierSpec,
    hierarchy_preset,
)
from repro.cdn.provider import get_provider
from repro.measurement import CampaignConfig, CampaignPlan, execute
from repro.netsim import ProxyConfig
from repro.store import ResultStore, campaign_config_hash, visit_config_part
from repro.store.keys import _schema_for
from repro.web.resource import Resource, ResourceType
from repro.web.topsites import GeneratorConfig, cached_universe

from tests.test_faults import result_fingerprint

#: Pinned fingerprint of the all-defaults campaign config.  This is the
#: dormancy acceptance criterion made executable: if adding a knob to
#: the hierarchy subsystem ever changes the default config's store
#: identity, every existing store is silently invalidated — this test
#: fails first.
DEFAULT_CONFIG_HASH = "236bee6174ac2965f75b9159eb697dc7"

SMALL = GeneratorConfig(n_sites=6)


@pytest.fixture(scope="module")
def universe():
    return cached_universe(SMALL, seed=17)


def two_tier(edge_bytes=10_000, regional_bytes=1_000_000):
    return HierarchyConfig(
        tiers=(
            TierSpec(name="edge", capacity_bytes=edge_bytes, fetch_ms=25.0),
            TierSpec(name="regional", capacity_bytes=regional_bytes, fetch_ms=40.0),
        )
    )


class TestTierChain:
    def test_full_miss_fills_every_tier(self):
        chain = TierChain(two_tier())
        found = chain.lookup("obj", 100)
        assert found.tier is None
        assert found.fetch_ms == 65.0
        assert found.hops == 2
        for tier in chain.tiers:
            assert "obj" in tier.cache

    def test_edge_hit_is_free(self):
        chain = TierChain(two_tier())
        chain.lookup("obj", 100)
        found = chain.lookup("obj", 100)
        assert found.tier == "edge"
        assert found.fetch_ms == 0.0
        assert found.hops == 0

    def test_regional_hit_refills_edge(self):
        chain = TierChain(two_tier(edge_bytes=150))
        chain.lookup("a", 100)
        chain.lookup("b", 100)  # evicts "a" from the tiny edge
        assert "a" not in chain.edge_cache
        found = chain.lookup("a", 100)
        assert found.tier == "regional"
        assert found.fetch_ms == 25.0  # only the edge fill leg
        assert found.hops == 1
        assert "a" in chain.edge_cache  # fill-on-read

    def test_warm_seeds_every_tier(self):
        chain = TierChain(two_tier())
        chain.warm("obj", 100)
        found = chain.lookup("obj", 100)
        assert found.tier == "edge" and found.hops == 0

    def test_full_miss_ms_sums_the_chain(self):
        assert two_tier().full_miss_ms == 65.0
        assert DEFAULT_HIERARCHY.full_miss_ms == 65.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least one tier"):
            HierarchyConfig(tiers=())
        with pytest.raises(ValueError, match="unique"):
            HierarchyConfig(
                tiers=(
                    TierSpec(name="edge", capacity_bytes=1, fetch_ms=1.0),
                    TierSpec(name="edge", capacity_bytes=2, fetch_ms=2.0),
                )
            )
        with pytest.raises(ValueError, match="capacity_bytes"):
            TierSpec(name="t", capacity_bytes=0, fetch_ms=1.0)

    def test_presets_resolve(self):
        assert hierarchy_preset("edge-regional") is DEFAULT_HIERARCHY
        names = [t.name for t in hierarchy_preset("edge-metro-regional").tiers]
        assert names == ["edge", "metro", "regional"]
        assert set(HIERARCHY_PRESETS) == {"edge-regional", "edge-metro-regional"}
        with pytest.raises(KeyError, match="unknown hierarchy preset"):
            hierarchy_preset("nope")


class TestCompression:
    def test_encoded_size_units(self):
        assert encoded_size(1000, "identity") == 1000
        assert encoded_size(1000, "gzip") == 350
        assert encoded_size(1000, "br") == 300
        assert encoded_size(1, "br") == 1  # floor of one wire byte
        with pytest.raises(ValueError, match="unknown encoding"):
            encoded_size(1000, "zstd")

    def test_wants_identity_deterministic_and_nested(self):
        urls = [f"https://cdn.example/{i}.js" for i in range(400)]
        for ratio in (0.0, 0.3, 0.7, 1.0):
            assert [wants_identity(u, ratio) for u in urls] == [
                wants_identity(u, ratio) for u in urls
            ]
        # Nesting is what makes amplification monotone in the ratio.
        low = {u for u in urls if wants_identity(u, 0.3)}
        high = {u for u in urls if wants_identity(u, 0.7)}
        assert low < high
        assert {u for u in urls if wants_identity(u, 1.0)} == set(urls)
        assert not any(wants_identity(u, 0.0) for u in urls)

    def test_client_accept_encoding(self):
        honest = CompressionConfig(identity_request_ratio=0.0)
        attack = CompressionConfig(identity_request_ratio=1.0)
        url = "https://cdn.example/app.js"
        assert client_accept_encoding(url, "js", honest) == ("br", "gzip", "identity")
        assert client_accept_encoding(url, "js", attack) == ("identity",)
        # Images are served as-is regardless of the attack ratio.
        assert client_accept_encoding(url, "image", attack) == ("identity",)

    def test_negotiate_respects_policy(self):
        full = CompressionPolicy(conversions=("identity", "gzip", "br"), cache_encoded=True)
        decompress_only = CompressionPolicy(conversions=("identity",), cache_encoded=False)
        # Stored form is always free to serve.
        assert negotiate(("br", "gzip", "identity"), "br", decompress_only) == "br"
        # The attack: identity demanded, policy decompresses.
        assert negotiate(("identity",), "br", decompress_only) == "identity"
        assert negotiate(("gzip", "identity"), "br", full) == "gzip"
        # Nothing producible: serve the stored form rather than 406.
        assert negotiate(("gzip",), "br", decompress_only) == "br"

    def test_provider_policy_fallback(self):
        assert "br" in provider_policy("cloudflare").conversions
        assert provider_policy("unheard-of").conversions == ("identity",)
        assert provider_policy(None).conversions == ("identity",)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="identity_request_ratio"):
            CompressionConfig(identity_request_ratio=1.5)
        with pytest.raises(ValueError, match="conversion_think_ms"):
            CompressionConfig(conversion_think_ms=-1.0)


class TestResourceEncoding:
    def make(self, rtype, size=1000):
        return Resource(
            url="https://cdn.example/a",
            host="cdn.example",
            rtype=rtype,
            size_bytes=size,
        )

    def test_compressible_by_type(self):
        assert self.make(ResourceType.JS).compressible
        assert not self.make(ResourceType.IMAGE).compressible

    def test_stored_encoding_and_encoded_bytes(self):
        js = self.make(ResourceType.JS)
        assert js.stored_encoding == "br"
        assert js.encoded_bytes("br") == 300
        assert js.encoded_bytes("identity") == 1000
        image = self.make(ResourceType.IMAGE)
        assert image.stored_encoding == "identity"
        # Non-compressible payloads never shrink on the wire.
        assert image.encoded_bytes("br") == 1000


class TestEconomicsLedger:
    def test_add_and_conservation(self):
        ledger = EconomicsLedger()
        ledger.add(
            EconomicsDelta(egress_bytes=300, cache_served_bytes=300),
            hit_tier="edge",
        )
        ledger.add(
            EconomicsDelta(
                egress_bytes=1000,
                transfer_bytes=1000,
                origin_bytes=300,
                tier_fetch_bytes=600,
                conversions=1,
            ),
            hit_tier=None,
        )
        assert ledger.conserved
        assert ledger.requests == 2
        assert ledger.tier_hits == {"edge": 1}
        assert ledger.misses == 1
        assert ledger.amplification == pytest.approx(1300 / 300)
        assert ledger.offload_ratio == pytest.approx(1.0 - 300 / 1300)

    def test_origin_hit_tier_counts_as_miss(self):
        ledger = EconomicsLedger()
        ledger.add(EconomicsDelta(egress_bytes=10, transfer_bytes=10), hit_tier="origin")
        assert ledger.misses == 1 and ledger.tier_hits == {}

    def test_merge_is_fieldwise(self):
        a, b = EconomicsLedger(), EconomicsLedger()
        a.add(EconomicsDelta(egress_bytes=5, cache_served_bytes=5), hit_tier="edge")
        b.add(EconomicsDelta(egress_bytes=7, transfer_bytes=7), hit_tier="regional")
        b.add(EconomicsDelta(egress_bytes=1, transfer_bytes=1, origin_bytes=1))
        a.merge(b)
        assert a.egress_bytes == 13
        assert a.tier_hits == {"edge": 1, "regional": 1}
        assert a.misses == 1
        assert a.conserved

    def test_counter_roundtrip(self):
        ledger = EconomicsLedger()
        ledger.add(
            EconomicsDelta(
                egress_bytes=100, transfer_bytes=100, origin_bytes=35,
                tier_fetch_bytes=70, conversions=1,
            )
        )
        items = dict(ledger.counter_items())
        assert items["economics.egress_bytes"] == 100
        assert items["cache.misses"] == 1
        rebuilt = EconomicsLedger.from_counters(lambda name: items.get(name, 0))
        for name in LEDGER_FIELDS:
            assert getattr(rebuilt, name) == getattr(ledger, name)
        assert rebuilt.misses == 1


class TestEdgeServerRich:
    def make_edge(self, **kwargs):
        return EdgeServer("cdnjs.cloudflare.com", get_provider("cloudflare"), **kwargs)

    def test_flat_serve_keeps_legacy_shape(self):
        edge = self.make_edge()
        decision = edge.serve("k", 1000, "h2")
        assert decision.hit_tier is None
        assert decision.body_bytes is None
        assert decision.economics is None
        assert "x-cache-tier" not in decision.headers

    def test_identity_attack_amplifies_egress(self):
        edge = self.make_edge(compression=CompressionConfig(identity_request_ratio=1.0))
        decision = edge.serve("k", 1000, "h2", accept_encoding=("identity",), rtype="js")
        eco = decision.economics
        # br ingress (300 B) decompressed to identity egress (1000 B).
        assert eco.origin_bytes == 300
        assert eco.egress_bytes == 1000
        assert eco.egress_bytes > eco.origin_bytes
        assert eco.conversions == 1
        assert eco.egress_bytes == eco.cache_served_bytes + eco.transfer_bytes

    def test_honest_client_gets_stored_form_free(self):
        edge = self.make_edge(compression=CompressionConfig())
        decision = edge.serve(
            "k", 1000, "h2", accept_encoding=("br", "gzip", "identity"), rtype="js"
        )
        assert decision.headers["content-encoding"] == "br"
        assert decision.economics.conversions == 0
        assert decision.economics.egress_bytes == 300

    def test_hierarchy_tier_header_and_miss_latency(self):
        edge = self.make_edge(hierarchy=DEFAULT_HIERARCHY)
        miss = edge.serve("k", 1000, "h2")
        assert miss.hit_tier == "origin"
        assert miss.headers["x-cache-tier"] == "origin"
        assert miss.think_ms == edge.base_think_ms + DEFAULT_HIERARCHY.full_miss_ms
        hit = edge.serve("k", 1000, "h2")
        assert hit.hit_tier == "edge"
        assert hit.think_ms == edge.base_think_ms

    def test_converted_variant_cached_when_policy_allows(self):
        # Cloudflare's policy caches post-conversion variants: the second
        # identity request for a br-stored object skips the conversion.
        edge = self.make_edge(compression=CompressionConfig(identity_request_ratio=1.0))
        first = edge.serve("k", 1000, "h2", accept_encoding=("identity",), rtype="js")
        second = edge.serve("k", 1000, "h2", accept_encoding=("identity",), rtype="js")
        assert first.economics.conversions == 1
        assert second.economics.conversions == 0
        assert second.cache_hit

    def test_hierarchy_only_reports_economics_without_body_bytes(self):
        edge = self.make_edge(hierarchy=DEFAULT_HIERARCHY)
        decision = edge.serve("k", 1000, "h2")
        assert decision.economics is not None
        assert decision.body_bytes is None  # byte arithmetic stays legacy


class TestDormancy:
    def test_default_config_hash_is_pinned(self):
        assert campaign_config_hash(CampaignConfig()) == DEFAULT_CONFIG_HASH

    def test_default_visit_part_omits_new_keys(self):
        part = visit_config_part(CampaignConfig())
        assert "hierarchy" not in part
        assert "compression" not in part
        assert _schema_for(part) == 2

    def test_hierarchy_config_bumps_schema(self):
        part = visit_config_part(CampaignConfig(cache_hierarchy=DEFAULT_HIERARCHY))
        assert "hierarchy" in part
        assert _schema_for(part) == 3
        part = visit_config_part(CampaignConfig(compression=CompressionConfig()))
        assert "compression" in part
        assert _schema_for(part) == 3

    def test_proxy_cache_bumps_schema_only_when_on(self):
        plain = visit_config_part(CampaignConfig(proxy=ProxyConfig()))
        cached = visit_config_part(
            CampaignConfig(proxy=ProxyConfig(model="connect-tunnel", cache_mb=8.0))
        )
        assert _schema_for(plain) == 2
        assert _schema_for(cached) == 3
        assert plain != cached

    def test_hierarchy_changes_store_identity(self):
        assert (
            campaign_config_hash(CampaignConfig(cache_hierarchy=DEFAULT_HIERARCHY))
            != DEFAULT_CONFIG_HASH
        )

    def test_default_campaign_emits_no_economics_counters(self, universe):
        config = CampaignConfig(seed=5, collect_counters=True)
        result = execute(CampaignPlan(
            universe, sim=config, pages=universe.pages[:2], workers=1
        ))
        names = set(result.counter_totals().to_dict().get("counters", {}))
        assert not any(n.startswith("economics.") for n in names)
        assert not any(n.startswith("cache.") for n in names)


def hierarchy_config(**kwargs):
    return CampaignConfig(
        seed=7,
        cache_hierarchy=DEFAULT_HIERARCHY,
        compression=CompressionConfig(identity_request_ratio=0.5),
        collect_counters=True,
        **kwargs,
    )


class TestHierarchyCampaign:
    def test_workers_4_reproduces_serial(self, universe):
        pages = universe.pages[:3]
        serial = execute(CampaignPlan(
            universe, sim=hierarchy_config(), pages=pages, workers=1
        ))
        parallel = execute(CampaignPlan(
            universe, sim=hierarchy_config(), pages=pages, workers=4
        ))
        assert result_fingerprint(serial) == result_fingerprint(parallel)
        assert (
            serial.counter_totals().to_dict() == parallel.counter_totals().to_dict()
        )

    def test_strict_mode_green_and_invisible(self, universe):
        pages = universe.pages[:2]
        plain = execute(CampaignPlan(
            universe, sim=hierarchy_config(), pages=pages, workers=1
        ))
        checked = execute(CampaignPlan(
            universe, sim=hierarchy_config(strict=True), pages=pages, workers=1
        ))
        assert result_fingerprint(plain) == result_fingerprint(checked)

    def test_warm_store_replay_all_hits(self, universe, tmp_path):
        pages = universe.pages[:2]
        with ResultStore(str(tmp_path / "st")) as store:
            fresh = execute(CampaignPlan(
                universe, sim=hierarchy_config(), pages=pages, store=store,
                run_name="a"
            ))
            warm = execute(CampaignPlan(
                universe, sim=hierarchy_config(), pages=pages, store=store,
                run_name="b"
            ))
        assert fresh.store_stats.misses == len(pages)
        assert warm.store_stats.hits == len(pages)
        assert warm.store_stats.misses == 0
        assert result_fingerprint(warm) == result_fingerprint(fresh)

    def test_economics_counters_conserve(self, universe):
        result = execute(CampaignPlan(
            universe, sim=hierarchy_config(), pages=universe.pages[:3], workers=1
        ))
        totals = result.counter_totals()
        ledger = EconomicsLedger.from_counters(totals.counter)
        assert ledger.requests > 0
        assert ledger.egress_bytes > 0
        assert ledger.conserved

    def test_tier_hit_counters_present(self, universe):
        # The double-visit protocol guarantees edge hits on the second
        # visit of every page.
        result = execute(CampaignPlan(
            universe, sim=hierarchy_config(), pages=universe.pages[:2], workers=1
        ))
        assert result.counter_totals().counter("cache.hits.edge") > 0


class TestProxyCache:
    def proxied(self, cache_mb, model="connect-tunnel"):
        return CampaignConfig(
            seed=9,
            proxy=ProxyConfig(model=model, cache_mb=cache_mb),
            collect_counters=True,
        )

    def test_tunnel_cache_hits_counted(self, universe):
        pages = universe.pages[:2]
        result = execute(CampaignPlan(
            universe, sim=self.proxied(cache_mb=64.0), pages=pages, workers=1
        ))
        hits = sum(
            visit.pool_stats.proxy_cache_hits
            for pv in result.paired_visits
            for visit in (pv.h2, pv.h3)
        )
        assert hits > 0
        assert result.counter_totals().counter("pool.proxy_cache_hits") == hits

    def test_cache_off_records_nothing(self, universe):
        pages = universe.pages[:2]
        result = execute(CampaignPlan(
            universe, sim=self.proxied(cache_mb=0.0), pages=pages, workers=1
        ))
        assert result.counter_totals().counter("pool.proxy_cache_hits") == 0

    def test_masque_relay_never_caches(self, universe):
        # End-to-end QUIC is opaque to the relay: cache_mb is ignored.
        pages = universe.pages[:2]
        result = execute(CampaignPlan(
            universe, sim=self.proxied(cache_mb=64.0, model="masque-relay"),
            pages=pages, workers=1
        ))
        assert result.counter_totals().counter("pool.proxy_cache_hits") == 0

    def test_proxy_cache_campaign_deterministic(self, universe):
        pages = universe.pages[:2]
        serial = execute(CampaignPlan(
            universe, sim=self.proxied(cache_mb=64.0), pages=pages, workers=1
        ))
        parallel = execute(CampaignPlan(
            universe, sim=self.proxied(cache_mb=64.0), pages=pages, workers=2
        ))
        assert result_fingerprint(serial) == result_fingerprint(parallel)


class TestClassifierDisagreement:
    class Entry:
        def __init__(self, host, is_cdn, provider):
            self.host = host
            self.is_cdn = is_cdn
            self.provider = provider

    def test_summary_shape(self):
        entries = [
            # Agreement: shared-domain host both classifiers know.
            self.Entry("cdnjs.cloudflare.com", True, "cloudflare"),
            # Header-only CDN signal: the dictionary misses it.
            self.Entry("www.customer-site.com", True, "akamai"),
            # Agreement on non-CDN.
            self.Entry("origin.example.net", False, None),
        ]
        summary = classifier_disagreement(entries)
        assert summary["entries"] == 3
        assert summary["disagreements"] == 1
        assert summary["missed_cdn"] == 1
        assert summary["extra_cdn"] == 0
        assert summary["disagreement_rate"] == pytest.approx(1 / 3)

    def test_provider_mismatch_counted(self):
        table = {"cloudflare.com": "not-cloudflare"}
        summary = classifier_disagreement(
            [self.Entry("cdnjs.cloudflare.com", True, "cloudflare")],
            dict_classifier=DictClassifier(table),
        )
        assert summary["provider_mismatch"] == 1
        assert summary["disagreements"] == 1
