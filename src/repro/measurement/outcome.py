"""Typed visit outcomes: the worker→parent campaign boundary.

:class:`VisitOutcome` is one paired visit as a typed value with an
explicit ok/degraded/failed status.  It has two encodings:

* the **record** (``to_record``/``from_record``): compact bytes that
  both the worker→parent boundary and the result store carry, so a
  pooled visit is encoded once in the worker, decoded once for the
  fold, and stored as the same bytes;
* the **document** (``to_dict``/``from_dict``): the HAR-JSON form, for
  export and for stores written before the record existed.

Record layout (little-endian)::

    magic   u8      RECORD_MAGIC (a JSON payload starts with ``{``)
    length  u32     byte length of the head
    head    JSON    outcome fields, the value table, the header sets
                    and each visit's page-level fields and telemetry
    rows    95 B    one fixed-width row per HAR entry, H2's then H3's

A row (:data:`_ROW`) holds the seven phase timings, the start and total
time, both sizes, the status, five flag bits and six indices: URL, host,
protocol, resource type and provider index the value table (``None`` is
its entry 0), and the last indexes the header sets, each an ordered
list of name/value indices, so header order survives.  Floats are
packed as doubles or written as JSON ``repr`` and decode bit-exact;
:data:`RECORD_LAYOUT` names this layout.

Status semantics:

``ok``
    Both modes measured cleanly.
``degraded``
    Both modes completed, but fault injection forced retries, H3→H2
    fallback, resets or individual fetch failures in at least one mode
    (the per-mode detail lives on each :class:`PageVisit`).
``failed``
    The visit raised out of the simulator entirely; ``error`` carries
    the reason and no visits are attached.  Only possible when a fault
    profile is active — fault-free runs propagate exceptions so real
    bugs stay loud.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from itertools import islice

from repro.browser.browser import PageVisit
from repro.browser.har import HarLog
from repro.http.messages import EntryTiming, HarEntry
from repro.http.pool import PoolStats

#: Serialization format tag (bump on incompatible changes).
OUTCOME_FORMAT = "repro-h3cdn-outcome/1"

#: First byte of an encoded record; no JSON document starts with it.
RECORD_MAGIC = 0xB3
#: Version of the record layout below (bump on incompatible changes).
RECORD_LAYOUT = 1

_PREFIX = struct.Struct("<BI")
_ROW = struct.Struct("<9dIIHB6H")
_POOL_FIELDS = tuple(f.name for f in fields(PoolStats))
_TELEMETRY = ("counters", "trace", "metrics", "spans")
#: Flag byte -> (reused, resumed, cache_hit, is_cdn, failed).
_FLAGS = tuple(
    tuple(bool(bits >> shift & 1) for shift in range(5)) for bits in range(32)
)

#: The closed set of outcome statuses.
STATUSES = ("ok", "degraded", "failed")


@dataclass(frozen=True)
class VisitFailure:
    """A visit that produced no measurement (campaign-level record)."""

    page_url: str
    probe_name: str
    error: str


@dataclass
class VisitOutcome:
    """One paired (H2, H3) page visit, as it crosses the process gap."""

    page_index: int
    status: str = "ok"
    h2: PageVisit | None = None
    h3: PageVisit | None = None
    error: str | None = None
    #: Provenance: ``"fresh"`` (just measured) or ``"replay"`` (served
    #: from a :class:`~repro.store.ResultStore`).  Never serialized —
    #: stored payloads stay bit-identical to fresh ones.
    source: str = "fresh"
    #: Event-loop callback profile (``config.profile_loop``); wall-clock
    #: only.  Carried across the process gap beside the record, never in
    #: it, so stored payloads stay host-independent.
    profile: dict | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {self.status!r}"
            )
        if self.status == "failed":
            if self.h2 is not None or self.h3 is not None:
                raise ValueError("a failed outcome carries no visits")
        elif self.h2 is None or self.h3 is None:
            raise ValueError(f"a {self.status!r} outcome needs both visits")

    @classmethod
    def from_visits(
        cls,
        page_index: int,
        h2: PageVisit,
        h3: PageVisit,
        profile: dict | None = None,
    ) -> "VisitOutcome":
        """Wrap two measured visits, deriving the paired status."""
        status = "ok"
        if h2.status != "ok" or h3.status != "ok":
            status = "degraded"
        return cls(
            page_index=page_index, status=status, h2=h2, h3=h3, profile=profile
        )

    @classmethod
    def from_error(cls, page_index: int, error: str) -> "VisitOutcome":
        return cls(page_index=page_index, status="failed", error=error)

    # -- the document: HAR JSON, for export and older stores ----------

    def to_dict(self) -> dict:
        """JSON-able rendering (plain dicts all the way down)."""
        document = {
            "format": OUTCOME_FORMAT,
            "pageIndex": self.page_index,
            "status": self.status,
            "h2": self.h2.to_dict() if self.h2 is not None else None,
            "h3": self.h3.to_dict() if self.h3 is not None else None,
            "error": self.error,
        }
        if self.profile is not None:
            document["profile"] = self.profile
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "VisitOutcome":
        if document.get("format") != OUTCOME_FORMAT:
            raise ValueError(
                f"unrecognized outcome format: {document.get('format')!r}"
            )
        h2 = document.get("h2")
        h3 = document.get("h3")
        return cls(
            page_index=document["pageIndex"],
            status=document["status"],
            h2=PageVisit.from_dict(h2) if h2 is not None else None,
            h3=PageVisit.from_dict(h3) if h3 is not None else None,
            error=document.get("error"),
            profile=document.get("profile"),
        )

    # -- the record: what workers send and the store keeps -------------

    def to_record(self) -> bytes:
        """Encode this outcome as a record (see the module docstring).

        The loop profile is left out: it is wall-clock noise, and the
        record is what the store keeps.
        """
        values: list = [None]
        index: dict = {None: 0}
        header_sets: list[list[int]] = []
        header_index: dict[tuple, int] = {}

        def intern(value) -> int:
            position = index.get(value)
            if position is None:
                position = index[value] = len(values)
                values.append(value)
            return position

        visits = []
        rows = []
        for visit in (self.h2, self.h3):
            if visit is None:
                continue
            har = visit.har
            head = {
                "pageUrl": visit.page_url,
                "protocolMode": visit.protocol_mode,
                "harUrl": har.page_url,
                "pltMs": visit.plt_ms,
                "onLoad": har.on_load_ms,
                "started": har.started_at_ms,
                "poolStats": [getattr(visit.pool_stats, f) for f in _POOL_FIELDS],
                "status": visit.status,
                "entries": len(har.entries),
            }
            for name in _TELEMETRY:
                value = getattr(visit, name)
                if value is not None:
                    head[name] = (
                        value.to_jsonable() if hasattr(value, "to_jsonable") else value
                    )
            visits.append(head)
            for entry in har.entries:
                headers = tuple(entry.headers.items())
                header_set = header_index.get(headers)
                if header_set is None:
                    header_set = header_index[headers] = len(header_sets)
                    header_sets.append(
                        [intern(item) for pair in headers for item in pair]
                    )
                t = entry.timings
                rows.append(_ROW.pack(
                    t.blocked, t.dns, t.connect, t.ssl, t.send, t.wait, t.receive,
                    entry.started_at_ms, entry.time_ms,
                    entry.response_bytes, entry.request_bytes, entry.status,
                    entry.reused | entry.resumed << 1 | entry.cache_hit << 2
                    | entry.is_cdn << 3 | entry.failed << 4,
                    intern(entry.url), intern(entry.host), intern(entry.protocol),
                    intern(entry.resource_type), intern(entry.provider),
                    header_set,
                ))
        head = json.dumps(
            {
                "pageIndex": self.page_index,
                "status": self.status,
                "error": self.error,
                "values": values,
                "headers": header_sets,
                "visits": visits,
            },
            separators=(",", ":"),
        ).encode()
        return _PREFIX.pack(RECORD_MAGIC, len(head)) + head + b"".join(rows)

    @classmethod
    def from_record(cls, record: bytes) -> "VisitOutcome":
        """Decode a record written by :meth:`to_record`."""
        magic, length = _PREFIX.unpack_from(record)
        if magic != RECORD_MAGIC:
            raise ValueError(f"not a visit record (first byte {magic:#04x})")
        start = _PREFIX.size + length
        head = json.loads(record[_PREFIX.size:start])
        values = head["values"]
        header_sets = []
        for pairs in head["headers"]:
            items = iter(pairs)
            header_sets.append({values[n]: values[v] for n, v in zip(items, items)})
        rows = _ROW.iter_unpack(memoryview(record)[start:])
        visits = [
            _decode_visit(visit, values, header_sets, rows) for visit in head["visits"]
        ]
        h2, h3 = visits or (None, None)
        if next(rows, None) is not None:
            raise ValueError("visit record has more entry rows than its visits")
        return cls(
            page_index=head["pageIndex"],
            status=head["status"],
            h2=h2,
            h3=h3,
            error=head["error"],
        )

    @classmethod
    def from_payload(cls, payload: bytes | dict) -> "VisitOutcome":
        """Decode a stored payload: a record, or a JSON document."""
        if isinstance(payload, dict):
            return cls.from_dict(payload)
        return cls.from_record(payload)


def _decode_visit(head: dict, values: list, header_sets: list, rows) -> PageVisit:
    """One visit of a record: its head, and its rows taken from ``rows``."""
    entries = []
    append = entries.append
    for (
        blocked, dns, connect, ssl, send, wait, receive, started, time_ms,
        response_bytes, request_bytes, status, flags,
        url, host, protocol, resource_type, provider, header_set,
    ) in islice(rows, head["entries"]):
        reused, resumed, cache_hit, is_cdn, failed = _FLAGS[flags]
        append(HarEntry(
            values[url], values[host], values[protocol],
            EntryTiming(blocked, dns, connect, ssl, send, wait, receive),
            response_bytes, request_bytes, dict(header_sets[header_set]),
            started, time_ms, values[resource_type], status,
            reused, resumed, cache_hit, is_cdn, values[provider], failed,
        ))
    if len(entries) != head["entries"]:
        raise ValueError("visit record is missing entry rows")
    return PageVisit(
        page_url=head["pageUrl"],
        protocol_mode=head["protocolMode"],
        har=HarLog(head["harUrl"], entries, head["onLoad"], head["started"]),
        plt_ms=head["pltMs"],
        pool_stats=PoolStats(*head["poolStats"]),
        counters=head.get("counters"),
        trace=head.get("trace"),
        metrics=head.get("metrics"),
        spans=head.get("spans"),
        status=head["status"],
    )
