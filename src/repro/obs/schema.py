"""Telemetry schema: validation for exported JSONL records.

The CLI's ``--trace-dir`` export writes one JSON object per line; this
module is the single source of truth for what a valid line looks like,
used by every row of ``python -m repro.smoke``, the tests, and any
downstream consumer::

    PYTHONPATH=src python -m repro.obs.schema trace.jsonl metrics.jsonl spans.jsonl

Two record shapes exist, dispatched on their keys:

* **events** (tracer events and metrics samples) carry ``name`` — one
  of :data:`repro.obs.trace.EVENT_NAMES` — plus ``time``, ``data``,
  ``conn``/``protocol`` and optional campaign context.  Every event
  family registers its permitted ``data`` keys in :data:`DATA_FIELDS`;
  an unregistered key is a validation error (missing keys are allowed —
  several families have optional fields).
* **spans** (:mod:`repro.obs.spans`) carry ``kind`` — one of
  :data:`repro.obs.spans.SPAN_KINDS` — plus ``id``/``parent``/``name``/
  ``t0``/``t1``/``wall_ms`` and the same optional context.

An object that is neither (no ``name``, no ``kind``) is an **error**,
not a silent pass: unknown record types in a telemetry file mean a
writer and this schema have diverged.
"""

from __future__ import annotations

import json
import sys

from repro.obs.spans import SPAN_KINDS
from repro.obs.trace import EVENT_NAMES

#: Context keys the campaign exporter may add around any record.
OPTIONAL_CONTEXT_KEYS = ("page", "probe", "mode")

#: Permitted ``data`` keys per event family.  Validation rejects keys
#: outside the family's set but tolerates absent ones (families like
#: ``request_timeout`` have optional fields, and the TCP and QUIC
#: tracers emit different subsets for the HoL events).
DATA_FIELDS: dict[str, frozenset[str]] = {
    "transport:handshake_started": frozenset({"flights"}),
    "transport:handshake_flight": frozenset({"flight", "elapsed_ms"}),
    "transport:handshake_completed": frozenset({"connect_ms", "zero_rtt", "retries"}),
    "recovery:handshake_timeout": frozenset({"flight", "retries"}),
    "transport:packet_sent": frozenset({"seq", "size", "dir", "retransmission"}),
    "transport:packet_received": frozenset({"seq", "size", "retransmission"}),
    "transport:packet_acked": frozenset({"seq"}),
    "transport:packet_lost": frozenset({"seq", "trigger"}),
    "transport:hol_stall_started": frozenset({"blocked_from", "stream_id"}),
    "transport:hol_stall_ended": frozenset({"duration_ms", "stream_id"}),
    "recovery:metrics_updated": frozenset({"cwnd", "ssthresh", "bytes_in_flight"}),
    "recovery:pto_fired": frozenset({"backoff"}),
    "security:session_ticket_hit": frozenset({"host"}),
    "security:session_ticket_miss": frozenset({"host"}),
    "security:session_ticket_rejected": frozenset({"host"}),
    "security:zero_rtt_accepted": frozenset({"host"}),
    "http:stream_opened": frozenset({"stream_id", "request_bytes", "response_bytes"}),
    "http:stream_closed": frozenset({"stream_id", "first_byte_ms", "duration_ms"}),
    # Fault-injection events: host plus fault-specific detail.
    "fault:blackout": frozenset({"host"}),
    "fault:udp_blackhole": frozenset({"host"}),
    "fault:edge_outage": frozenset({"host"}),
    "fault:dns_failure": frozenset({"host", "attempt"}),
    "fault:connection_reset": frozenset({"host", "streams"}),
    "fault:zero_rtt_reject": frozenset({"host"}),
    "fault:nat_rebind": frozenset({"host", "streams"}),
    "fault:wifi_to_cellular": frozenset({"host", "streams"}),
    # Connection-migration outcomes per established connection.
    "migration:migrated": frozenset({"host", "protocol", "streams"}),
    "migration:reconnect": frozenset({"host", "protocol", "streams"}),
    # Proxy topology events.
    "proxy:h3_downgrade": frozenset({"host", "model"}),
    # Client-side recovery actions.
    "recovery:h3_fallback": frozenset({"host", "orphaned"}),
    "recovery:connect_timeout": frozenset({"host", "protocol"}),
    "recovery:connect_retry": frozenset({"host", "attempt", "delay_ms"}),
    "recovery:request_timeout": frozenset({"host", "reason"}),
    "recovery:request_retry": frozenset({"host", "attempt", "delay_ms"}),
    "recovery:request_failed": frozenset({"host", "reason"}),
    "recovery:dns_retry": frozenset({"host", "attempt"}),
    # Sim-time metrics samples.
    "metrics:transport_sample": frozenset(
        {"cwnd", "bytes_in_flight", "srtt_ms", "goodput_kbps"}
    ),
    "metrics:link_sample": frozenset({"queue_ms", "throughput_kbps"}),
    # CDN cache-hierarchy events: tier that answered, hops traversed.
    "cache:hit": frozenset({"host", "tier"}),
    "cache:miss": frozenset({"host", "hops"}),
    # Provider-side byte accounting per served request.
    "economics:egress": frozenset({"host", "bytes", "encoding", "source"}),
    "economics:origin_fetch": frozenset({"host", "bytes"}),
}

# Every event family must register its fields: the two sets drifting
# apart is exactly the bug this assert turns into an import error.
assert frozenset(DATA_FIELDS) == EVENT_NAMES, (
    "DATA_FIELDS and EVENT_NAMES disagree: "
    f"{frozenset(DATA_FIELDS) ^ EVENT_NAMES}"
)


class TraceSchemaError(ValueError):
    """Raised when a telemetry record violates the schema."""


def _check_context(record: dict) -> None:
    for key in OPTIONAL_CONTEXT_KEYS:
        if key in record and not isinstance(record[key], str):
            raise TraceSchemaError(f"{key!r} must be a string when present")


def validate_event(event: object) -> None:
    """Raise :class:`TraceSchemaError` unless ``event`` is schema-valid."""
    if not isinstance(event, dict):
        raise TraceSchemaError(f"event must be an object, got {type(event).__name__}")
    time = event.get("time")
    if not isinstance(time, (int, float)) or isinstance(time, bool) or time < 0:
        raise TraceSchemaError(f"'time' must be a non-negative number, got {time!r}")
    name = event.get("name")
    if name not in EVENT_NAMES:
        raise TraceSchemaError(f"unknown event name {name!r}")
    data = event.get("data")
    if not isinstance(data, dict):
        raise TraceSchemaError(f"'data' must be an object, got {type(data).__name__}")
    allowed = DATA_FIELDS[name]
    for key, value in data.items():
        if not isinstance(key, str):
            raise TraceSchemaError(f"data key {key!r} is not a string")
        if key not in allowed:
            raise TraceSchemaError(
                f"data key {key!r} is not registered for {name!r}"
            )
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise TraceSchemaError(
                f"data[{key!r}] must be a JSON scalar, got {type(value).__name__}"
            )
    for key in ("conn", "protocol"):
        if not isinstance(event.get(key), str):
            raise TraceSchemaError(f"{key!r} must be a string")
    _check_context(event)


def validate_span(span: object) -> None:
    """Raise :class:`TraceSchemaError` unless ``span`` is schema-valid."""
    if not isinstance(span, dict):
        raise TraceSchemaError(f"span must be an object, got {type(span).__name__}")
    kind = span.get("kind")
    if kind not in SPAN_KINDS:
        raise TraceSchemaError(f"unknown span kind {kind!r}")
    span_id = span.get("id")
    if not isinstance(span_id, int) or isinstance(span_id, bool) or span_id < 1:
        raise TraceSchemaError(f"'id' must be a positive integer, got {span_id!r}")
    parent = span.get("parent")
    if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
        raise TraceSchemaError(f"'parent' must be an integer or null, got {parent!r}")
    if not isinstance(span.get("name"), str):
        raise TraceSchemaError("'name' must be a string")
    for key in ("t0", "t1"):
        value = span.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            raise TraceSchemaError(
                f"{key!r} must be a non-negative number, got {value!r}"
            )
    if span["t1"] < span["t0"]:
        raise TraceSchemaError(f"'t1' ({span['t1']}) precedes 't0' ({span['t0']})")
    wall_ms = span.get("wall_ms")
    if wall_ms is not None and (
        not isinstance(wall_ms, (int, float)) or isinstance(wall_ms, bool) or wall_ms < 0
    ):
        raise TraceSchemaError(
            f"'wall_ms' must be a non-negative number or null, got {wall_ms!r}"
        )
    _check_context(span)


def validate_record(record: object) -> None:
    """Validate one telemetry record of either shape.

    Dispatches on the record's keys: ``kind`` → span, ``name`` → event.
    A record with neither is an error — unknown record types mean a
    writer and this schema have diverged, and silence would hide it.
    """
    if not isinstance(record, dict):
        raise TraceSchemaError(
            f"record must be an object, got {type(record).__name__}"
        )
    if "kind" in record:
        validate_span(record)
    elif "name" in record:
        validate_event(record)
    else:
        raise TraceSchemaError(
            "unknown record type: neither an event ('name') nor a span ('kind')"
        )


def validate_events(events: list) -> int:
    """Validate a list of record objects; returns how many passed."""
    for index, event in enumerate(events):
        try:
            validate_record(event)
        except TraceSchemaError as exc:
            raise TraceSchemaError(f"event {index}: {exc}") from None
    return len(events)


def validate_jsonl(path: str) -> int:
    """Validate one JSONL telemetry file; returns the record count."""
    count = 0
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{path}:{line_number}: not JSON: {exc}") from None
            try:
                validate_record(record)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{line_number}: {exc}") from None
            count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.schema RECORDS.jsonl [...]", file=sys.stderr)
        return 2
    for path in paths:
        try:
            count = validate_jsonl(path)
        except (TraceSchemaError, OSError) as exc:
            print(f"INVALID {path}: {exc}", file=sys.stderr)
            return 1
        print(f"ok {path}: {count} records")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
