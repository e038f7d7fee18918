"""The server farm: live servers + network paths, as one probe sees them.

A farm instantiates the universe's declarative :class:`~repro.web.hosts.
HostSpec` inventory into live edge/origin servers (fresh caches) and
builds one shared :class:`~repro.netsim.path.NetworkPath` per hostname.
Sharing the path between connections to the same host means concurrent
H2+H3 connections contend for the same bottleneck, as they would from a
real probe.

The probe's own network conditions — its distance scaling and any
``tc netem`` impairment (the Fig. 9 loss sweep) — are expressed as a
:class:`ProbeNetProfile` overlaid on each host's base RTT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cdn.edge import EdgeServer
from repro.cdn.origin import OriginServer
from repro.events import EventLoop
from repro.netsim.netem import NetemProfile
from repro.netsim.path import NetworkPath
from repro.netsim.proxy import ProxyConfig, SegmentedPath
from repro.web.hosts import HostSpec
from repro.web.page import Webpage


@dataclass(frozen=True)
class ProbeNetProfile:
    """One probe's network conditions, overlaid on per-host base RTTs."""

    #: Multiplier on each host's base RTT (vantage-point distance).
    rtt_scale: float = 1.0
    #: Additive one-way delay (last-mile).
    extra_delay_ms: float = 0.0
    #: Loss imposed by ``tc netem`` (per direction).
    loss_rate: float = 0.0
    #: Bottleneck rate of the probe's access link.
    rate_mbps: float | None = 50.0
    #: Uniform jitter bound per direction.
    jitter_ms: float = 0.0
    #: Use bursty (Gilbert–Elliott) instead of i.i.d. loss.
    bursty_loss: bool = False

    def netem_for(self, host: HostSpec) -> NetemProfile:
        """The concrete path conditions to one host."""
        one_way = (host.base_rtt_ms / 2.0) * self.rtt_scale + self.extra_delay_ms
        return NetemProfile(
            delay_ms=one_way,
            jitter_ms=self.jitter_ms,
            loss_rate=self.loss_rate,
            rate_mbps=self.rate_mbps,
            bursty_loss=self.bursty_loss,
        )


class ServerFarm:
    """Lazy inventory of live servers and paths for one probe run."""

    def __init__(
        self,
        loop: EventLoop,
        hosts: dict[str, HostSpec],
        net_profile: ProbeNetProfile | None = None,
        rng: random.Random | None = None,
        proxy: ProxyConfig | None = None,
        hierarchy=None,
        compression=None,
    ) -> None:
        self.loop = loop
        self.specs = hosts
        self.net_profile = net_profile or ProbeNetProfile()
        self.rng = rng or random.Random(0)
        #: Optional proxy hop: every path becomes a two-segment chain
        #: (client→proxy access leg, proxy→edge shaped leg).
        self.proxy = proxy
        #: Optional cache hierarchy / compression configs handed to
        #: every instantiated edge (``None`` keeps legacy behaviour).
        self.hierarchy = hierarchy
        self.compression = compression
        #: Proxy-side response cache, shared by both protocol modes
        #: (like edge caches, it belongs to the farm and persists across
        #: the probe's visits).  Only a TCP-terminating CONNECT tunnel
        #: can cache; a MASQUE relay forwards opaque end-to-end QUIC.
        self.proxy_cache = None
        if (
            proxy is not None
            and proxy.model == "connect-tunnel"
            and getattr(proxy, "cache_mb", 0.0) > 0
        ):
            from repro.cdn.hierarchy import LruCache

            self.proxy_cache = LruCache(int(proxy.cache_mb * 1024 * 1024))
        self._servers: dict[str, EdgeServer | OriginServer] = {}
        self._paths: dict[str, NetworkPath | SegmentedPath] = {}

    def server(self, hostname: str) -> EdgeServer | OriginServer:
        """The live server for ``hostname`` (instantiated on first use)."""
        if hostname not in self._servers:
            self._servers[hostname] = self.specs[hostname].instantiate(
                hierarchy=self.hierarchy, compression=self.compression
            )
        return self._servers[hostname]

    def path(self, hostname: str) -> NetworkPath | SegmentedPath:
        """The shared probe↔host network path.

        Exactly one RNG draw happens per host regardless of topology,
        so switching a proxy on or off never perturbs the seed stream
        of later hosts.
        """
        if hostname not in self._paths:
            spec = self.specs[hostname]
            path_rng = random.Random(self.rng.getrandbits(64))
            if self.proxy is not None:
                # The campaign's netem shaping (vantage distance, loss
                # sweep) rides the proxy→edge leg — that is where the
                # testbed impairment sits; the access leg to a nearby
                # proxy comes from the proxy config.
                self._paths[hostname] = SegmentedPath(
                    self.loop,
                    (self.proxy.client_profile, self.net_profile.netem_for(spec)),
                    rng=path_rng,
                    name=hostname,
                    forward_delay_ms=self.proxy.forward_delay_ms,
                    proxy_model=self.proxy.model,
                )
            else:
                self._paths[hostname] = NetworkPath(
                    self.loop,
                    self.net_profile.netem_for(spec),
                    rng=path_rng,
                    name=hostname,
                )
        return self._paths[hostname]

    def warm_caches(self, pages: tuple[Webpage, ...] | list[Webpage]) -> None:
        """Pre-seed edge caches with the popular objects of ``pages``.

        This models the paper's observation that its target pages are
        popular enough to live at the edges long-term; the double-visit
        protocol then makes even the unpopular tail warm.
        """
        for page in pages:
            for resource in page.cdn_resources:
                if not resource.popular:
                    continue
                server = self.server(resource.host)
                if isinstance(server, EdgeServer):
                    server.warm(
                        resource.url, resource.size_bytes, rtype=resource.rtype.value
                    )

    def clear_caches(self) -> None:
        """Drop every edge cache (fresh-cache experiment variants).

        Each edge is rebuilt, so call this before a browser's first
        visit: a browser keeps the server it first got for each host
        (``Browser.routes``).
        """
        for hostname, server in self._servers.items():
            if isinstance(server, EdgeServer):
                spec = self.specs[hostname]
                self._servers[hostname] = spec.instantiate(
                    hierarchy=self.hierarchy, compression=self.compression
                )

    def total_bytes_transferred(self) -> int:
        """Across all paths, both directions (ethics accounting)."""
        return sum(path.total_bytes_transferred() for path in self._paths.values())

    def __repr__(self) -> str:
        return (
            f"<ServerFarm hosts={len(self.specs)} live={len(self._servers)} "
            f"profile={self.net_profile}>"
        )
