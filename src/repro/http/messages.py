"""HTTP-level datatypes: protocols and the per-request HAR entry."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class HttpProtocol(enum.Enum):
    """HTTP versions, with HAR-style wire names.

    The paper's Table II buckets requests into HTTP/2, HTTP/3 and
    "Others" (HTTP/1.x); :attr:`H1` is that last bucket.
    """

    H1 = "http/1.1"
    H2 = "h2"
    H3 = "h3"

    @property
    def transport(self) -> str:
        """Underlying transport protocol name."""
        return "quic" if self is HttpProtocol.H3 else "tcp"

    @property
    def multiplexes(self) -> bool:
        """Whether many streams share one connection (H2/H3, not H1.1)."""
        return self is not HttpProtocol.H1


@dataclass
class EntryTiming:
    """Chrome-HAR-style timing breakdown for one request (all in ms).

    The paper's entry-level metrics (Section III-C, after Cloudflare's
    taxonomy) map onto this as: *Connection time* = ``connect`` (which
    already includes ``ssl``), *Wait time* = ``wait``, *Receive time* =
    ``receive``.
    """

    blocked: float = 0.0
    dns: float = 0.0
    connect: float = 0.0
    ssl: float = 0.0
    send: float = 0.0
    wait: float = 0.0
    receive: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end request duration (``ssl`` is inside ``connect``)."""
        return self.blocked + self.dns + self.connect + self.send + self.wait + self.receive

    def as_dict(self) -> dict[str, float]:
        return {
            "blocked": self.blocked,
            "dns": self.dns,
            "connect": self.connect,
            "ssl": self.ssl,
            "send": self.send,
            "wait": self.wait,
            "receive": self.receive,
        }


@dataclass
class HarEntry:
    """One request/response exchange, as the paper's analyses see it.

    The connection pool fills the fields before ``started_at_ms`` and
    the flags when it issues the request (or gives up on it); the
    browser adds the DNS phase, the request's start and total time, its
    resource type and its CDN classification when the entry lands.
    """

    url: str
    host: str
    protocol: str  # "http/1.1" | "h2" | "h3"
    timings: EntryTiming
    response_bytes: int
    request_bytes: int
    headers: dict[str, str] = field(default_factory=dict)
    #: When the browser requested the resource (before its DNS lookup).
    started_at_ms: float = 0.0
    time_ms: float = 0.0
    resource_type: str = "other"
    status: int = 200
    #: Rode an existing connection (connect time 0) — Fig. 7 criterion.
    reused: bool = False
    #: Connection resumed from a session ticket — Fig. 8 criterion.
    resumed: bool = False
    #: Edge cache hit.
    cache_hit: bool = False
    #: LocEdge-style classification (filled at collection time).
    is_cdn: bool = False
    provider: str | None = None
    #: Fetch gave up after exhausting its fault-recovery retry budget
    #: (``status`` is 0, Chrome-style, for such entries).
    failed: bool = False

    @classmethod
    def failure(
        cls,
        url: str,
        host: str,
        protocol: str,
        started_at_ms: float,
        request_bytes: int,
        now_ms: float,
    ) -> "HarEntry":
        """A fetch that gave up at ``now_ms``: blocked throughout, no response."""
        return cls(
            url=url,
            host=host,
            protocol=protocol,
            timings=EntryTiming(blocked=now_ms - started_at_ms),
            response_bytes=0,
            request_bytes=request_bytes,
            started_at_ms=started_at_ms,
            status=0,
            failed=True,
        )

    @property
    def connection_time(self) -> float:
        """The paper's *Connection time* (handshake, incl. TLS)."""
        return self.timings.connect

    @property
    def wait_time(self) -> float:
        """The paper's *Wait time* (first request byte → first response byte)."""
        return self.timings.wait

    @property
    def receive_time(self) -> float:
        """The paper's *Receive time* (response transmission)."""
        return self.timings.receive

    @property
    def used_reused_connection(self) -> bool:
        """The paper's reuse test: 'if the connection time is 0, then it
        is a reused connection' (Section VI-C)."""
        return self.timings.connect == 0.0

    def to_dict(self) -> dict:
        """HAR-1.2-flavoured rendering of this entry.

        The ``_failed`` extension key appears only on failed entries,
        keeping fault-free documents byte-identical to older captures.
        """
        document = {
            "startedDateTime": self.started_at_ms,
            "time": self.time_ms,
            "request": {
                "method": "GET",
                "url": self.url,
                "headersSize": self.request_bytes,
            },
            "response": {
                "status": self.status,
                "httpVersion": self.protocol,
                "headers": [
                    {"name": name, "value": value}
                    for name, value in self.headers.items()
                ],
                "bodySize": self.response_bytes,
            },
            "timings": self.timings.as_dict(),
            "_resourceType": self.resource_type,
            "_cdn": {"isCdn": self.is_cdn, "provider": self.provider},
            "_reused": self.reused,
            "_resumed": self.resumed,
            "_cacheHit": self.cache_hit,
        }
        if self.failed:
            document["_failed"] = True
        return document
