"""HTTP-level datatypes: protocols and per-request timing records."""

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
class FetchRecord:
    """Everything the pool knows about one completed fetch.

    The browser turns this into a HAR entry; the paper's analyses read
    ``reused`` (connect time 0 ⇒ reused HTTP connection, Section VI-C)
    and ``resumed`` (session-ticket resumption, Section VI-D).
    """

    url: str
    host: str
    protocol: HttpProtocol
    started_at_ms: float
    timing: EntryTiming
    response_bytes: int
    request_bytes: int
    headers: dict[str, str] = field(default_factory=dict)
    #: Request rode an existing connection (its connect time is 0).
    reused: bool = False
    #: Connection was established via a TLS session ticket.
    resumed: bool = False
    #: The edge answered from cache.
    cache_hit: bool = False
    completed_at_ms: float = 0.0
    #: The fetch gave up after exhausting its retry budget (fault
    #: injection); ``error`` carries the terminal reason.
    failed: bool = False
    error: str | None = None

    @property
    def total_ms(self) -> float:
        return self.completed_at_ms - self.started_at_ms

    @classmethod
    def failure(
        cls,
        url: str,
        host: str,
        protocol: HttpProtocol,
        started_at_ms: float,
        request_bytes: int,
        now_ms: float,
        error: str,
    ) -> "FetchRecord":
        """A fetch that gave up at ``now_ms``: blocked throughout, no response."""
        timing = EntryTiming()
        timing.blocked = now_ms - started_at_ms
        return cls(
            url=url,
            host=host,
            protocol=protocol,
            started_at_ms=started_at_ms,
            timing=timing,
            response_bytes=0,
            request_bytes=request_bytes,
            completed_at_ms=now_ms,
            failed=True,
            error=error,
        )
