"""Tests for the CDN substrate: providers, edges, caches, classifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn import (
    GIANT_PROVIDERS,
    DictClassifier,
    EdgeServer,
    LruCache,
    OriginServer,
    classify_response,
    default_providers,
    get_provider,
)


class TestProviderRegistry:
    def test_market_shares_sum_to_one(self):
        total = sum(p.market_share for p in default_providers())
        assert total == pytest.approx(1.0)

    def test_the_paper_six_giants_present(self):
        assert set(GIANT_PROVIDERS) == {
            "amazon", "akamai", "cloudflare", "fastly", "google", "microsoft",
        }

    def test_table1_release_years(self):
        """The paper's Table I release years, verbatim."""
        expected = {
            "cloudflare": 2019,
            "google": 2021,
            "fastly": 2021,
            "quic_cloud": 2021,
            "amazon": 2022,
            "meta": 2022,
            "akamai": 2023,
        }
        for name, year in expected.items():
            assert get_provider(name).h3_release_year == year

    def test_google_has_highest_h3_adoption_among_giants(self):
        """'Google's CDN services have almost entirely shifted towards
        H3 access' (paper Section IV-B)."""
        google = get_provider("google")
        for name in GIANT_PROVIDERS:
            if name != "google":
                assert get_provider(name).h3_adoption < google.h3_adoption
        assert google.h3_adoption >= 0.85

    def test_cloudflare_h3_comparable_to_h2(self):
        """'its proportions of H3 and H2 are comparable' (Section IV-B).

        ``h3_adoption`` is *host-level*; the generator weights traffic
        towards H3-capable hosts (2.5×), so the request-level share is
        ``2.5p / (2.5p + (1-p))`` — comparable to H2 means the host
        parameter sits lower, around 0.25–0.45.
        """
        p = get_provider("cloudflare").h3_adoption
        request_level = 2.5 * p / (2.5 * p + (1 - p))
        assert 0.35 <= request_level <= 0.60

    def test_expected_h3_share_of_cdn_requests(self):
        """Calibration: sum(share*adoption) ~ 38.4% (9280/24153 in Table II)."""
        expected = sum(p.market_share * p.h3_adoption for p in default_providers())
        assert 0.33 <= expected <= 0.44

    def test_fifty_eight_shared_domains(self):
        """The paper's case study extracts 58 cross-page domains."""
        domains = [d for p in default_providers() for d in p.shared_domains]
        assert len(domains) == 58
        assert len(set(domains)) == 58  # no duplicates across providers

    def test_unknown_provider_raises(self):
        with pytest.raises(KeyError, match="unknown CDN provider"):
            get_provider("does-not-exist")

    def test_lookup_is_case_insensitive(self):
        assert get_provider("GOOGLE").name == "google"


class TestLruCache:
    def test_miss_then_hit(self):
        cache = LruCache(capacity_bytes=1000)
        assert not cache.lookup("a")
        cache.insert("a", 100)
        assert cache.lookup("a")
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_at_capacity(self):
        cache = LruCache(capacity_bytes=250)
        cache.insert("a", 100)
        cache.insert("b", 100)
        cache.insert("c", 100)  # evicts "a"
        assert not cache.lookup("a")
        assert cache.lookup("b") and cache.lookup("c")
        assert cache.evictions == 1

    def test_lru_order_respects_recency(self):
        cache = LruCache(capacity_bytes=250)
        cache.insert("a", 100)
        cache.insert("b", 100)
        cache.lookup("a")  # touch "a" so "b" is now LRU
        cache.insert("c", 100)
        assert cache.lookup("a")
        assert not cache.lookup("b")

    def test_reinsert_updates_size(self):
        cache = LruCache(capacity_bytes=300)
        cache.insert("a", 100)
        cache.insert("a", 200)
        assert cache.used_bytes == 200
        assert len(cache) == 1

    def test_oversized_object_not_cached(self):
        cache = LruCache(capacity_bytes=100)
        cache.insert("huge", 500)
        assert "huge" not in cache
        assert cache.used_bytes == 0

    def test_oversized_insert_leaves_cache_intact(self):
        """Regression: an object that can never fit must be rejected
        without flushing everything else out on the way."""
        cache = LruCache(capacity_bytes=250)
        cache.insert("a", 100)
        cache.insert("b", 100)
        cache.insert("huge", 500)
        assert "huge" not in cache
        assert "a" in cache and "b" in cache
        assert cache.used_bytes == 200
        assert cache.evictions == 0

    def test_reinsert_oversized_drops_old_entry_cleanly(self):
        """A cached object re-inserted at an uncacheable size is simply
        dropped; the byte accounting must follow."""
        cache = LruCache(capacity_bytes=250)
        cache.insert("a", 100)
        cache.insert("b", 100)
        cache.insert("a", 500)
        assert "a" not in cache
        assert "b" in cache
        assert cache.used_bytes == 100
        assert cache.evictions == 0

    def test_reinsert_shrink_frees_bytes(self):
        cache = LruCache(capacity_bytes=300)
        cache.insert("a", 200)
        cache.insert("a", 50)
        assert cache.used_bytes == 50
        cache.insert("b", 250)  # fits exactly because "a" shrank
        assert "a" in cache and "b" in cache
        assert cache.evictions == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LruCache(capacity_bytes=0)
        cache = LruCache(100)
        with pytest.raises(ValueError):
            cache.insert("x", 0)

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(min_value=1, max_value=60)),
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_used_bytes_never_exceeds_capacity(self, ops):
        cache = LruCache(capacity_bytes=100)
        for key, size in ops:
            cache.insert(key, size)
            assert cache.used_bytes <= 100


class TestEdgeServer:
    def make_edge(self, **kwargs):
        return EdgeServer("cdnjs.cloudflare.com", get_provider("cloudflare"), **kwargs)

    def test_cold_request_pays_origin_fetch(self):
        edge = self.make_edge(base_think_ms=8.0, origin_fetch_ms=60.0)
        decision = edge.serve("res1", 10_000, "h2")
        assert not decision.cache_hit
        assert decision.think_ms == pytest.approx(68.0)

    def test_second_request_is_a_hit(self):
        edge = self.make_edge(base_think_ms=8.0, origin_fetch_ms=60.0)
        edge.serve("res1", 10_000, "h2")
        decision = edge.serve("res1", 10_000, "h2")
        assert decision.cache_hit
        assert decision.think_ms == pytest.approx(8.0)

    def test_h3_adds_compute_overhead(self):
        edge = self.make_edge(base_think_ms=8.0, h3_think_overhead_ms=4.0)
        edge.warm("res1", 10_000)
        h2 = edge.serve("res1", 10_000, "h2")
        h3 = edge.serve("res1", 10_000, "h3")
        assert h3.think_ms - h2.think_ms == pytest.approx(4.0)

    def test_h3_on_unsupported_edge_rejected(self):
        edge = self.make_edge(supports_h3=False)
        with pytest.raises(ValueError, match="does not support H3"):
            edge.serve("res1", 1000, "h3")

    def test_headers_identify_provider(self):
        edge = self.make_edge()
        decision = edge.serve("res1", 1000, "h2")
        assert decision.headers["server"] == "cloudflare"
        assert decision.headers["x-cache"] == "MISS"

    def test_warm_preseeds_cache(self):
        edge = self.make_edge()
        edge.warm("res1", 1000)
        assert edge.serve("res1", 1000, "h2").cache_hit


class TestOriginServer:
    def test_h1_only_origin_rejects_h2(self):
        origin = OriginServer("old.example.com", supports_h2=False)
        with pytest.raises(ValueError, match="HTTP/1.x only"):
            origin.serve("res", 1000, "h2")

    def test_h3_origin_serves_h3(self):
        origin = OriginServer("modern.example.com", supports_h3=True)
        decision = origin.serve("res", 1000, "h3")
        assert decision.protocol == "h3"

    def test_h3_only_origin_is_invalid(self):
        with pytest.raises(ValueError):
            OriginServer("weird.example.com", supports_h2=False, supports_h3=True)

    def test_origin_has_no_provider(self):
        origin = OriginServer("www.example.com")
        assert origin.provider is None
        assert origin.kind == "origin"


class TestClassifier:
    def test_classifies_by_server_header(self):
        result = classify_response("random-customer-host.example", {"Server": "cloudflare"})
        assert result.is_cdn
        assert result.provider_name == "cloudflare"
        assert result.matched_by == "header"

    def test_classifies_by_via_header(self):
        result = classify_response("images.shop.example", {"via": "1.1 varnish (Fastly)"})
        assert result.provider_name == "fastly"

    def test_classifies_by_shared_domain(self):
        result = classify_response("fonts.gstatic.com")
        assert result.is_cdn
        assert result.provider_name == "google"
        assert result.matched_by == "domain"

    def test_classifies_by_domain_pattern(self):
        result = classify_response("d111111abcdef8.cloudfront.net")
        assert result.provider_name == "amazon"
        assert result.matched_by == "pattern"

    def test_unknown_host_is_non_cdn(self):
        result = classify_response("www.myblog.example", {"server": "nginx"})
        assert not result.is_cdn
        assert result.provider_name is None

    def test_all_registry_shared_domains_classify_to_their_provider(self):
        """Round trip: every shared domain must classify back to its owner."""
        for provider in default_providers():
            for domain in provider.shared_domains:
                result = classify_response(domain)
                assert result.is_cdn, domain
                assert result.provider_name == provider.name, domain

    def test_edge_headers_classify_to_their_provider(self):
        """Round trip via headers, as LocEdge does with live traffic."""
        for provider in default_providers():
            edge = EdgeServer("edge.example", provider)
            decision = edge.serve("r", 1000, "h2")
            result = classify_response("edge.example", decision.headers)
            assert result.provider_name == provider.name

    def test_header_lookup_case_insensitive(self):
        result = classify_response("x.example", {"SERVER": "CloudFlare"})
        assert result.provider_name == "cloudflare"

    def test_mixed_case_via_header_and_host(self):
        result = classify_response(
            "Images.Shop.EXAMPLE", {"VIA": "1.1 Varnish (Fastly)"}
        )
        assert result.provider_name == "fastly"
        assert result.matched_by == "header"

    def test_header_wins_over_colliding_domain_pattern(self):
        """A customer CNAME can carry another provider's name in its
        hostname; the header fingerprint is the more reliable signal
        and must win."""
        result = classify_response(
            "assets.cloudfront.net", {"server": "cloudflare"}
        )
        assert result.provider_name == "cloudflare"
        assert result.matched_by == "header"

    def test_pattern_matches_mid_label_substring(self):
        """``classify_response`` patterns are plain substrings — a
        hostname merely *containing* a provider domain matches.  That
        permissiveness is exactly what :class:`DictClassifier`'s
        label-boundary matching tightens up (see TestDictClassifier)."""
        result = classify_response("evil-fastly.net.attacker.example")
        assert result.is_cdn
        assert result.provider_name == "fastly"
        assert result.matched_by == "pattern"


def _classify_unmemoised(host, headers=None):
    """``classify_response`` as it was before the memo (the oracle)."""
    from repro.cdn.classifier import _DEFAULT_INDEX, _DOMAIN_PATTERNS, ClassificationResult

    by_server, by_via, by_domain, known_names = _DEFAULT_INDEX
    headers = {k.lower(): v for k, v in (headers or {}).items()}
    host = host.lower()
    server = headers.get("server", "").lower()
    if server in by_server:
        return ClassificationResult(True, by_server[server], "header")
    via = headers.get("via", "").lower()
    if via in by_via:
        return ClassificationResult(True, by_via[via], "header")
    if host in by_domain:
        return ClassificationResult(True, by_domain[host], "domain")
    for provider_name, patterns in _DOMAIN_PATTERNS.items():
        if provider_name in known_names and any(p in host for p in patterns):
            return ClassificationResult(True, provider_name, "pattern")
    return ClassificationResult.non_cdn()


class TestClassifierMemo:
    @pytest.fixture(scope="class")
    def served(self):
        """Every (host, headers) the reference universe's servers send."""
        import random

        from repro.events import EventLoop
        from repro.measurement import ProbeNetProfile, ServerFarm
        from repro.web import GeneratorConfig, TopSitesGenerator

        universe = TopSitesGenerator(GeneratorConfig(n_sites=128)).generate(seed=11)
        farm = ServerFarm(EventLoop(), universe.hosts, ProbeNetProfile(),
                          rng=random.Random(3))
        served = []
        for host in universe.hosts:
            server = farm.server(host)
            if isinstance(server, EdgeServer):
                header_sets = [server.response_headers(hit) for hit in (True, False)]
            else:
                header_sets = [server.response_headers()]
            served += [(host, headers) for headers in header_sets]
        # The universe's hosts match by header or shared domain only;
        # add customer hostnames that match by pattern.
        for host in ("d111111abcdef8.cloudfront.net", "img.Akamaized.net",
                     "evil-fastly.net.attacker.example", "x.azureedge.net"):
            served += [(host, {"server": "nginx"}), (host, None)]
        return served

    @staticmethod
    def variants(host, headers):
        """The headers as sent, re-cased, and with a name given twice
        (the last spelling of a name wins)."""
        yield host, headers
        headers = headers or {}
        yield host.upper(), {name.title(): value.upper() for name, value in headers.items()}
        yield host, {**headers, "SERVER": "nginx"}
        yield host, {"Server": "cloudflare", **headers}
        yield host, {**headers, "Via": "1.1 varnish (Fastly)", "VIA": "1.1 google"}
        yield host, None

    def test_memo_matches_the_unmemoised_classifier(self, served):
        assert len(served) > 600
        seen = set()
        for host, headers in served:
            for variant_host, variant_headers in self.variants(host, headers):
                expected = _classify_unmemoised(variant_host, variant_headers)
                # Twice: the first call fills the memo, the second reads it.
                for _ in range(2):
                    got = classify_response(variant_host, variant_headers)
                    assert got == expected, (variant_host, variant_headers)
                seen.add(expected.matched_by)
        assert seen == {"header", "domain", "pattern", None}

    def test_memo_shares_one_frozen_result(self):
        first = classify_response("Fonts.GSTATIC.com", {"server": "x"})
        assert classify_response("fonts.gstatic.com", {"Server": "X"}) is first

    def test_custom_registry_bypasses_the_memo(self):
        import dataclasses

        fastly = get_provider("fastly")
        renamed = dataclasses.replace(fastly, name="renamed-fastly")
        headers = {"server": fastly.header_server}
        assert classify_response("a.example", headers).provider_name == "fastly"
        result = classify_response("a.example", headers, providers=(renamed,))
        assert result.provider_name == "renamed-fastly"
        assert classify_response("a.example", headers).provider_name == "fastly"


class TestDictClassifier:
    def test_matches_on_label_boundaries(self):
        verdict = DictClassifier().classify("cdn.fastly.net")
        assert verdict.is_cdn
        assert verdict.provider_name == "fastly"
        assert verdict.matched_by == "dict"

    def test_rejects_mid_label_substrings(self):
        """``myfastly.network.example`` contains the string
        ``fastly.net`` but no suffix of its label sequence equals it."""
        assert not DictClassifier().classify("myfastly.network.example").is_cdn

    def test_deep_subdomains_still_match(self):
        verdict = DictClassifier().classify("a.b.c.cloudfront.net")
        assert verdict.provider_name == "amazon"

    def test_case_and_trailing_dot_insensitive(self):
        verdict = DictClassifier().classify("Fonts.GStatic.COM.")
        assert verdict.provider_name == "google"

    def test_bare_tld_never_matches(self):
        assert not DictClassifier().classify("net").is_cdn
        assert not DictClassifier().classify("example.unknown-host.test").is_cdn

    def test_custom_table(self):
        classifier = DictClassifier({"my-cdn.example": "mycdn"})
        assert classifier.classify("edge1.my-cdn.example").provider_name == "mycdn"
        assert not classifier.classify("cdn.fastly.net").is_cdn

    def test_knows_nothing_of_headers(self):
        """The realism gap the manifest's disagreement rate measures: a
        customer-owned hostname whose only CDN signal is the response
        headers is invisible to the dictionary."""
        host = "www.customer-shop.example"
        header_verdict = classify_response(host, {"server": "AkamaiGHost"})
        assert header_verdict.is_cdn
        assert not DictClassifier().classify(host).is_cdn
