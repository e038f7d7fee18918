"""CDN edge servers: caching, protocol support, and request costs.

An :class:`EdgeServer` is what a probe actually talks to when fetching a
CDN resource.  It contributes three things to the measured timings:

* **Protocol support** — whether the edge can speak H3 for a given
  resource (drawn per-resource from the provider's ``h3_adoption`` by
  the website generator; the edge enforces it).
* **Cache state** — a byte-capacity LRU, optionally layered into an
  edge → regional → origin tier chain (:mod:`repro.cdn.hierarchy`).  A
  hit answers after the base think time; a miss adds the fetch-through
  penalty of every tier it had to traverse and fills those tiers (the
  paper's double-visit protocol exists exactly to warm this cache).
* **H3 compute overhead** — userspace QUIC costs more CPU per request
  than kernel TCP (the paper's Section VI-B observes the wait-time
  median favouring H2); modelled as a small additive think-time term.

With a :class:`~repro.cdn.compression.CompressionConfig` the edge also
negotiates the response encoding against the client's Accept-Encoding
and its provider's conversion policy, and reports provider-side byte
accounting (:class:`~repro.cdn.economics.EconomicsDelta`) per request.
Both features default to off, in which case ``serve`` follows the
original flat-LRU arithmetic exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cdn.compression import (
    CompressionConfig,
    CompressionPolicy,
    DEFAULT_ACCEPT,
    encoded_size,
    is_compressible,
    negotiate,
    origin_encoding,
    provider_policy,
)
from repro.cdn.economics import EconomicsDelta
from repro.cdn.hierarchy import HierarchyConfig, LruCache, TierChain
from repro.cdn.provider import CdnProvider
from repro.transport.tcp import TlsVersion

__all__ = ["EdgeServer", "LruCache", "ServeDecision"]


@dataclass
class ServeDecision:
    """Outcome of asking an edge to serve one request.

    The last three fields only carry data on the hierarchy/compression
    path; flat-cache, compression-off edges leave them at their
    defaults so existing consumers see the exact pre-hierarchy shape.
    """

    cache_hit: bool
    think_ms: float
    protocol: str  # the protocol actually used
    headers: dict[str, str] = field(default_factory=dict)
    #: Tier that held the object ("origin" for a full-chain miss);
    #: None on the legacy flat path.
    hit_tier: str | None = None
    #: Wire bytes of the (possibly re-encoded) response body; None means
    #: "the resource's identity size", the legacy behaviour.
    body_bytes: int | None = None
    #: Provider-side byte accounting for this request.
    economics: EconomicsDelta | None = None


class EdgeServer:
    """One CDN edge (one hostname) close to the probes."""

    kind = "edge"

    def __init__(
        self,
        hostname: str,
        provider: CdnProvider,
        base_rtt_ms: float = 20.0,
        base_think_ms: float = 8.0,
        origin_fetch_ms: float = 60.0,
        h3_think_overhead_ms: float = 4.0,
        supports_h3: bool = True,
        tls_version: TlsVersion = TlsVersion.TLS13,
        cache_capacity_bytes: int = 512 * 1024 * 1024,
        issues_tickets: bool = True,
        resumption_rate: float = 0.75,
        tls_setup_cpu_ms: float = 9.0,
        resumed_setup_cpu_ms: float = 2.0,
        hierarchy: HierarchyConfig | None = None,
        compression: CompressionConfig | None = None,
    ) -> None:
        self.hostname = hostname
        self.provider = provider
        self.base_rtt_ms = base_rtt_ms
        self.base_think_ms = base_think_ms
        self.origin_fetch_ms = origin_fetch_ms
        self.h3_think_overhead_ms = h3_think_overhead_ms
        self.supports_h3 = supports_h3
        self.supports_h2 = True
        self.tls_version = tls_version
        self.hierarchy = hierarchy
        self.tiers: TierChain | None = TierChain(hierarchy) if hierarchy else None
        #: The client-facing cache: tier 0 of the chain, or the flat LRU.
        self.cache = (
            self.tiers.edge_cache if self.tiers else LruCache(cache_capacity_bytes)
        )
        self.compression = compression
        self.policy: CompressionPolicy = provider_policy(provider.name)
        self.issues_tickets = issues_tickets
        #: Probability a presented session ticket is accepted.  Real CDN
        #: edges are load-balanced fleets with rotating ticket keys, so
        #: resumption succeeds well below 100 % of the time.
        self.resumption_rate = resumption_rate
        #: Server-side CPU cost of a full TLS handshake (certificate
        #: signing); added to the opening request's think time.  Session
        #: resumption skips the certificate crypto and pays the cheaper
        #: cost.  Partial H3 deployment splits a provider's traffic over
        #: extra connections, so complicated pages pay this more often —
        #: one ingredient of the paper's Fig. 6(a) turning point.
        self.tls_setup_cpu_ms = tls_setup_cpu_ms
        self.resumed_setup_cpu_ms = resumed_setup_cpu_ms
        #: HTTP connection-coalescing group (RFC 7540 §9.1.1 / RFC 7838).
        #: A provider's edge hostnames share certificates and IPs, so
        #: browsers coalesce their H2/H3 requests onto one connection per
        #: provider.  The paper leans on this (citing the "Respect the
        #: ORIGIN!" coalescing study): under an H2-only run all of a
        #: provider's resources share one connection, while partial H3
        #: deployment splits them across an H3 and an H2 connection —
        #: the root of the Fig. 7 reuse difference.
        self.coalesce_key = f"cdn:{provider.name}"
        #: Response headers per cache outcome (``[hit]``), built once and
        #: shared by every decision: nothing may write into them.
        self._headers = (self.response_headers(False), self.response_headers(True))

    def serve(
        self,
        resource_key: str,
        size_bytes: int,
        protocol: str,
        accept_encoding: tuple[str, ...] | None = None,
        rtype: str | None = None,
    ) -> ServeDecision:
        """Process one request and report its server-side cost.

        ``protocol`` is ``"h2"`` or ``"h3"``; requesting H3 from an edge
        that does not support it is a caller bug.  ``accept_encoding``
        and ``rtype`` only matter when the edge has a compression
        config; without hierarchy and compression the flat-LRU
        arithmetic below is bit-identical to previous releases.
        """
        if protocol == "h3" and not self.supports_h3:
            raise ValueError(f"{self.hostname} does not support H3")
        if self.tiers is None and self.compression is None:
            hit = self.cache.lookup(resource_key)
            think = self.base_think_ms
            if not hit:
                think += self.origin_fetch_ms
                self.cache.insert(resource_key, size_bytes)
            if protocol == "h3":
                think += self.h3_think_overhead_ms
            return ServeDecision(
                cache_hit=hit,
                think_ms=think,
                protocol=protocol,
                headers=self._headers[hit],
            )
        return self._serve_rich(
            resource_key, size_bytes, protocol, accept_encoding, rtype
        )

    def _serve_rich(
        self,
        resource_key: str,
        size_bytes: int,
        protocol: str,
        accept_encoding: tuple[str, ...] | None,
        rtype: str | None,
    ) -> ServeDecision:
        """Hierarchy- and compression-aware serve path."""
        compress = self.compression is not None and is_compressible(rtype)
        stored_encoding = origin_encoding(rtype) if compress else "identity"
        stored_size = encoded_size(size_bytes, stored_encoding)
        egress_encoding = stored_encoding
        if compress:
            egress_encoding = negotiate(
                accept_encoding or DEFAULT_ACCEPT, stored_encoding, self.policy
            )
        body = encoded_size(size_bytes, egress_encoding)
        converted = egress_encoding != stored_encoding

        edge_tier_name = self.tiers.tiers[0].name if self.tiers else "edge"
        variant_key = f"{resource_key}#{egress_encoding}" if converted else None
        conversions = 0
        # Post-conversion caching keeps the converted variant in the
        # client-facing tier only; upper tiers always hold the stored form.
        if variant_key is not None and self.policy.cache_encoded and self.cache.lookup(
            variant_key
        ):
            hit_tier: str | None = edge_tier_name
            extra_ms = 0.0
            hops = 0
        else:
            if self.tiers is not None:
                found = self.tiers.lookup(resource_key, stored_size)
                hit_tier = found.tier
                extra_ms = found.fetch_ms
                hops = found.hops
            else:
                if self.cache.lookup(resource_key):
                    hit_tier, extra_ms, hops = edge_tier_name, 0.0, 0
                else:
                    self.cache.insert(resource_key, stored_size)
                    hit_tier, extra_ms, hops = None, self.origin_fetch_ms, 1
            if converted:
                conversions = 1
                if self.policy.cache_encoded:
                    self.cache.insert(variant_key, body)

        cache_hit = hit_tier == edge_tier_name
        think = self.base_think_ms + extra_ms
        if conversions and self.compression is not None:
            think += self.compression.conversion_think_ms
        if protocol == "h3":
            think += self.h3_think_overhead_ms

        economics = EconomicsDelta(
            requests=1,
            egress_bytes=body,
            cache_served_bytes=body if cache_hit else 0,
            transfer_bytes=0 if cache_hit else body,
            origin_bytes=stored_size if hit_tier is None else 0,
            tier_fetch_bytes=stored_size * hops,
            conversions=conversions,
        )
        headers = dict(self._headers[cache_hit])
        resolved_tier = hit_tier if hit_tier is not None else "origin"
        headers["x-cache-tier"] = resolved_tier
        if self.compression is not None and egress_encoding != "identity":
            headers["content-encoding"] = egress_encoding
        return ServeDecision(
            cache_hit=cache_hit,
            think_ms=think,
            protocol=protocol,
            headers=headers,
            hit_tier=resolved_tier,
            body_bytes=body if self.compression is not None else None,
            economics=economics,
        )

    def response_headers(self, cache_hit: bool) -> dict[str, str]:
        """Headers the LocEdge-style classifier fingerprints."""
        headers = {
            "server": self.provider.header_server,
            "x-cache": "HIT" if cache_hit else "MISS",
        }
        if self.provider.header_via is not None:
            headers["via"] = self.provider.header_via
        if self.supports_h3:
            headers["alt-svc"] = 'h3=":443"; ma=86400'
        return headers

    def warm(self, resource_key: str, size_bytes: int, rtype: str | None = None) -> None:
        """Pre-seed the cache (popular objects already at the edge).

        Tiers store the origin-encoded form, so with compression on the
        warmed size is the stored (compressed) size.
        """
        size = size_bytes
        if self.compression is not None:
            size = encoded_size(size_bytes, origin_encoding(rtype))
        if self.tiers is not None:
            self.tiers.warm(resource_key, size)
        else:
            self.cache.insert(resource_key, size)

    def __repr__(self) -> str:
        return f"<EdgeServer {self.hostname} ({self.provider.name}) h3={self.supports_h3}>"
