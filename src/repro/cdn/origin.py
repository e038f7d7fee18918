"""Non-CDN origin web servers.

The 33 % of requests the paper classifies as non-CDN are answered by
the website's own infrastructure: farther away (higher RTT), slower to
process, and with patchier protocol support (the Table II "Others" row
— HTTP/1.x-only servers — lives here).
"""

from __future__ import annotations

from repro.cdn.edge import ServeDecision
from repro.cdn.provider import CdnProvider
from repro.transport.tcp import TlsVersion


class OriginServer:
    """A website's own (non-CDN) server."""

    kind = "origin"
    #: Origins don't belong to a CDN provider.
    provider: CdnProvider | None = None

    def __init__(
        self,
        hostname: str,
        base_rtt_ms: float = 90.0,
        base_think_ms: float = 25.0,
        h3_think_overhead_ms: float = 4.0,
        supports_h3: bool = False,
        supports_h2: bool = True,
        tls_version: TlsVersion = TlsVersion.TLS13,
        issues_tickets: bool = True,
        resumption_rate: float = 0.9,
        tls_setup_cpu_ms: float = 9.0,
        resumed_setup_cpu_ms: float = 2.0,
    ) -> None:
        if not supports_h2 and supports_h3:
            raise ValueError("an H3-only origin would be unreachable for H2 probes")
        self.hostname = hostname
        self.base_rtt_ms = base_rtt_ms
        self.base_think_ms = base_think_ms
        self.h3_think_overhead_ms = h3_think_overhead_ms
        self.supports_h3 = supports_h3
        #: H1.1-only servers (the paper's "Others" bucket) set this False.
        self.supports_h2 = supports_h2
        self.tls_version = tls_version
        self.issues_tickets = issues_tickets
        #: Single-machine origins accept tickets more reliably than
        #: load-balanced edge fleets.
        self.resumption_rate = resumption_rate
        #: TLS handshake CPU (full / resumed), as on edges.
        self.tls_setup_cpu_ms = tls_setup_cpu_ms
        self.resumed_setup_cpu_ms = resumed_setup_cpu_ms
        #: Origins don't share certificates: no cross-host coalescing.
        self.coalesce_key = f"origin:{hostname}"
        #: Response headers, built once and shared by every decision.
        self._headers = self.response_headers()

    def serve(
        self,
        resource_key: str,
        size_bytes: int,
        protocol: str,
        accept_encoding: tuple[str, ...] | None = None,
        rtype: str | None = None,
    ):
        """Process one request (no cache tier at the origin).

        ``accept_encoding``/``rtype`` are accepted for signature parity
        with :meth:`EdgeServer.serve` and ignored: non-CDN origins in
        this model serve identity bodies straight off disk.
        """
        if protocol == "h3" and not self.supports_h3:
            raise ValueError(f"{self.hostname} does not support H3")
        if protocol == "h2" and not self.supports_h2:
            raise ValueError(f"{self.hostname} is HTTP/1.x only")
        think = self.base_think_ms
        if protocol == "h3":
            think += self.h3_think_overhead_ms
        return ServeDecision(
            cache_hit=False,
            think_ms=think,
            protocol=protocol,
            headers=self._headers,
        )

    def response_headers(self) -> dict[str, str]:
        headers = {"server": "nginx"}
        if self.supports_h3:
            headers["alt-svc"] = 'h3=":443"; ma=86400'
        return headers

    def __repr__(self) -> str:
        return f"<OriginServer {self.hostname} h3={self.supports_h3} h2={self.supports_h2}>"
