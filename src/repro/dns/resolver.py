"""A caching stub resolver with pluggable upstream transport.

Latency model
-------------

A cache hit answers instantly.  A miss pays:

* one round trip to the recursive resolver, scaled by the upstream
  transport's connection cost —

  ============  =============================================
  ``UDP``       1 × RTT (classic Do53, no connection)
  ``TCP_TLS``   3 × RTT on first use (TCP+TLS1.3 handshake),
                1 × RTT once the connection is warm (DoT/DoH)
  ``QUIC``      2 × RTT on first use (QUIC handshake),
                1 × RTT warm (DoQ, RFC 9250)
  ============  =============================================

* plus the recursive resolver's own upstream work for names not in
  *its* cache (popular names are answered immediately; the long tail
  pays an extra recursion delay).

Kosek et al. (IMC'22), cited by the paper, measure exactly these DoQ
vs DoUDP trade-offs; the model reproduces their qualitative ordering.
"""

from __future__ import annotations

import enum
import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.events import EventLoop


class DnsTransport(enum.Enum):
    """Upstream transport between the stub and the recursive resolver."""

    UDP = "udp"
    TCP_TLS = "tcp-tls"
    QUIC = "doq"

    @property
    def cold_round_trips(self) -> float:
        if self is DnsTransport.UDP:
            return 1.0
        if self is DnsTransport.TCP_TLS:
            return 3.0
        return 2.0  # QUIC

    @property
    def warm_round_trips(self) -> float:
        return 1.0


@dataclass(frozen=True)
class DnsConfig:
    """Resolver behaviour knobs."""

    #: RTT between the probe and its recursive resolver.  Testbed
    #: probes (CloudLab) sit next to a campus resolver.
    resolver_rtt_ms: float = 2.5
    #: Positive cache TTL in the stub (browsers cap around a minute).
    cache_ttl_ms: float = 60_000.0
    #: Probability the recursive resolver already has the name cached
    #: (popular names — CDN hostnames overwhelmingly are).
    recursive_hit_rate: float = 0.97
    #: Extra delay when the recursive resolver must walk the hierarchy.
    recursion_ms_range: tuple[float, float] = (20.0, 80.0)
    #: Upstream transport (the DoQ extension knob).
    transport: DnsTransport = DnsTransport.UDP

    def __post_init__(self) -> None:
        if self.resolver_rtt_ms < 0:
            raise ValueError("resolver_rtt_ms must be >= 0")
        if not 0.0 <= self.recursive_hit_rate <= 1.0:
            raise ValueError("recursive_hit_rate must be in [0, 1]")


@lru_cache(maxsize=1 << 12)
def _recursion_ms(
    host: str, recursive_hit_rate: float, recursion_ms_range: tuple[float, float]
) -> float | None:
    """The recursion cost of resolving ``host`` upstream, or None on a
    recursive-cache hit.

    The cost is a *property of the name* (its delegation chain and
    popularity), not a fresh random draw: a host that is slow to resolve
    is slow for every probe and protocol run.  Deriving it from a stable
    hash keeps H2/H3 comparisons paired, and makes it a pure function of
    its arguments, so it is drawn once per name and configuration.
    """
    host_rng = random.Random(zlib.crc32(host.encode()))
    if host_rng.random() >= recursive_hit_rate:
        return host_rng.uniform(*recursion_ms_range)
    return None


class DnsResolver:
    """Stub resolver with a TTL cache and in-flight deduplication."""

    def __init__(
        self,
        loop: EventLoop,
        config: DnsConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.loop = loop
        self.config = config or DnsConfig()
        self.rng = rng or random.Random(0)
        self._cache: dict[str, float] = {}  # host -> expiry time
        # host -> [(callback, joined_at), ...]: each waiter remembers
        # when *it* asked, so coalesced callers are billed their own
        # elapsed time rather than the first caller's.
        self._inflight: dict[str, list[tuple[Callable[[float], None], float]]] = {}
        self._upstream_warm = False
        self.hits = 0
        self.misses = 0
        self.lookups_sent = 0
        #: Optional fault hook: ``fail_filter(host) -> bool`` decides
        #: whether an *upstream* lookup SERVFAILs right now (installed
        #: by the browser when fault injection is active).  Cached
        #: answers keep resolving through an upstream outage.
        self.fail_filter: Callable[[str], bool] | None = None
        self.failures = 0

    def resolve(
        self,
        host: str,
        on_done: Callable[[float], None],
        on_fail: Callable[[], None] | None = None,
    ) -> None:
        """Resolve ``host``; ``on_done(latency_ms)`` fires when ready.

        Cache hits complete synchronously with latency 0.  Concurrent
        lookups for the same name coalesce onto one upstream query;
        each caller is reported the latency *it* experienced (from its
        own ``resolve`` call to the shared answer).

        When a :attr:`fail_filter` is installed and ``on_fail`` is
        provided, an upstream lookup inside a fault window SERVFAILs:
        ``on_fail()`` fires after one resolver round trip and nothing
        is cached.  Callers that pass no ``on_fail`` keep the legacy
        always-succeeds behaviour.
        """
        now = self.loop.now
        expiry = self._cache.get(host)
        if expiry is not None and now < expiry:
            self.hits += 1
            on_done(0.0)
            return
        if (
            on_fail is not None
            and self.fail_filter is not None
            and self.fail_filter(host)
        ):
            self.failures += 1
            self.loop.call_later(self.config.resolver_rtt_ms, on_fail)
            return
        self.misses += 1
        waiters = self._inflight.get(host)
        if waiters is not None:
            waiters.append((on_done, now))
            return
        self._inflight[host] = [(on_done, now)]
        latency = self._lookup_latency_ms(host)
        self.lookups_sent += 1
        self.loop.call_later(latency, self._complete, host)

    def _complete(self, host: str) -> None:
        now = self.loop.now
        self._cache[host] = now + self.config.cache_ttl_ms
        for waiter, joined_at in self._inflight.pop(host, []):
            waiter(now - joined_at)

    def _lookup_latency_ms(self, host: str) -> float:
        cfg = self.config
        if self._upstream_warm:
            round_trips = cfg.transport.warm_round_trips
        else:
            round_trips = cfg.transport.cold_round_trips
            self._upstream_warm = True
        latency = round_trips * cfg.resolver_rtt_ms
        recursion = _recursion_ms(
            host, cfg.recursive_hit_rate, tuple(cfg.recursion_ms_range)
        )
        if recursion is not None:
            latency += recursion
        return latency

    def clear(self) -> None:
        """Flush the stub cache (and forget upstream connection state)."""
        self._cache.clear()
        self._upstream_warm = False

    def cached_hosts(self) -> frozenset[str]:
        return frozenset(self._cache)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
