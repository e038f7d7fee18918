"""HAR (HTTP Archive) records, the measurement's unit of analysis.

The paper collects Chrome-HAR files and reads, per entry, the protocol,
the CDN classification, and the timing phases (connection / wait /
receive); and per page, the PLT.  :class:`HarEntry` carries exactly
those fields (plus provenance flags the analyses need), and
:class:`HarLog` can render a HAR-1.2-style dict for interoperability.
:class:`HarEntry` lives in :mod:`repro.http.messages`, where the
connection pool fills it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.http.messages import EntryTiming, HarEntry


@dataclass
class HarLog:
    """All entries of one page visit plus page-level timing."""

    page_url: str
    entries: list[HarEntry] = field(default_factory=list)
    on_load_ms: float = 0.0  # PLT
    started_at_ms: float = 0.0

    @property
    def plt_ms(self) -> float:
        """Page Load Time: start of load → onLoad (paper Section III-C)."""
        return self.on_load_ms

    def cdn_entries(self) -> list[HarEntry]:
        return [e for e in self.entries if e.is_cdn]

    def reused_connection_count(self) -> int:
        """Entries served on reused connections (Fig. 7 metric)."""
        return sum(1 for e in self.entries if e.used_reused_connection)

    def resumed_connection_count(self) -> int:
        """Entries whose connection was ticket-resumed (Fig. 8 metric)."""
        return sum(1 for e in self.entries if e.resumed)

    def total_bytes(self) -> int:
        return sum(e.response_bytes for e in self.entries)

    def to_dict(self) -> dict:
        """Render the whole visit as a HAR-1.2-style document."""
        return {
            "log": {
                "version": "1.2",
                "creator": {"name": "repro-h3cdn", "version": "1.0"},
                "pages": [
                    {
                        "id": self.page_url,
                        "startedDateTime": self.started_at_ms,
                        "pageTimings": {"onLoad": self.on_load_ms},
                    }
                ],
                "entries": [entry.to_dict() for entry in self.entries],
            }
        }

    @classmethod
    def from_dict(cls, document: dict) -> "HarLog":
        """Parse a HAR document produced by :meth:`to_dict`.

        Round-tripping lets the analysis pipeline consume archived HAR
        files (simulated or — with the ``_cdn``/``_reused`` extension
        fields absent — real Chrome captures, re-classified on load).
        """
        log = document["log"]
        page = log["pages"][0]
        har = cls(
            page_url=page["id"],
            started_at_ms=page.get("startedDateTime", 0.0),
            on_load_ms=page.get("pageTimings", {}).get("onLoad", 0.0),
        )
        for raw in log["entries"]:
            timings = raw.get("timings", {})
            # Real Chrome HARs use -1 as "phase not applicable" (e.g.
            # dns/connect on reused connections); clamp negative
            # sentinels to 0 so downstream phase arithmetic and the
            # invariant checker see honest durations.
            timing = EntryTiming(
                **{
                    name: max(0.0, timings.get(name, 0.0))
                    for name in (
                        "blocked", "dns", "connect", "ssl",
                        "send", "wait", "receive",
                    )
                }
            )
            headers = {
                h["name"]: h["value"]
                for h in raw.get("response", {}).get("headers", [])
            }
            url = raw["request"]["url"]
            host = url.split("/")[2] if "//" in url else url
            cdn_extension = raw.get("_cdn")
            if cdn_extension is None:
                # A foreign HAR: classify the way the paper ran LocEdge.
                from repro.cdn.classifier import classify_response

                result = classify_response(host, headers)
                is_cdn, provider = result.is_cdn, result.provider_name
            else:
                is_cdn = cdn_extension.get("isCdn", False)
                provider = cdn_extension.get("provider")
            har.entries.append(
                HarEntry(
                    url=url,
                    host=host,
                    protocol=raw.get("response", {}).get("httpVersion", "h2"),
                    started_at_ms=raw.get("startedDateTime", 0.0),
                    time_ms=raw.get("time", timing.total),
                    timings=timing,
                    response_bytes=raw.get("response", {}).get("bodySize", 0),
                    request_bytes=raw.get("request", {}).get("headersSize", 0),
                    resource_type=raw.get("_resourceType", "other"),
                    headers=headers,
                    status=raw.get("response", {}).get("status", 200),
                    reused=raw.get("_reused", timing.connect == 0.0),
                    resumed=raw.get("_resumed", False),
                    cache_hit=raw.get("_cacheHit", False),
                    is_cdn=is_cdn,
                    provider=provider,
                    failed=raw.get("_failed", False),
                )
            )
        return har
