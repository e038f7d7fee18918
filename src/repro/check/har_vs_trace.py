"""Differential validation: replay a visit's qlog trace against its HAR.

The HAR timings and the qlog-style trace are produced by *different*
code paths (the pool's per-fetch closures vs the transport's event
hooks), so agreement between them is strong evidence the timing
pipeline is honest:

* every ``http:stream_opened``/``http:stream_closed`` pair must match
  one HAR entry: the stream opens at the entry's issue instant
  (``started + dns + blocked + connect``), its first byte lands after
  the entry's ``wait``, and it closes after ``wait + receive``;
* the multiset of ``transport:handshake_completed`` ``connect_ms``
  values must equal the multiset of connection-opening entries'
  ``connect`` timings.

Usage::

    python -m repro.check.har_vs_trace                # self-run a traced
                                                      # smoke campaign
    python -m repro.check.har_vs_trace visits.jsonl   # validate exported
                                                      # visit documents

Exit status 0 when every visit cross-checks clean, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

#: Timing agreement tolerance (ms); both sides read the same event-loop
#: clock, so anything beyond float noise is a real divergence.
TOLERANCE_MS = 1e-6


def _stream_records(trace: list[dict]) -> tuple[list[tuple], list[float], list[str]]:
    """Extract (bytes, opened_at, first_byte, duration) per stream.

    Returns the stream tuples, the handshake ``connect_ms`` list and
    any structural problems (streams that never closed).
    """
    # The ``conn`` label is per *host*, and an H1 pool opens several
    # connections to one host — so ``(conn, stream_id)`` is NOT unique
    # across connection instances.  A close is therefore paired with
    # the same-key open whose time matches ``close.time - duration_ms``
    # (the close event's fields are relative to its own open).
    opened: dict[tuple, list[dict]] = {}
    closes: list[tuple[tuple, dict]] = []
    handshakes: list[float] = []
    for event in trace:
        name = event["name"]
        key = (event["conn"], event["data"].get("stream_id"))
        if name == "http:stream_opened":
            opened.setdefault(key, []).append(event)
        elif name == "http:stream_closed":
            closes.append((key, event))
        elif name == "transport:handshake_completed":
            handshakes.append(event["data"]["connect_ms"])
    problems: list[str] = []
    streams: list[tuple] = []
    for key, close_event in closes:
        candidates = opened.get(key, [])
        opened_at = close_event["time"] - close_event["data"]["duration_ms"]
        match = next(
            (
                index
                for index, open_event in enumerate(candidates)
                if abs(open_event["time"] - opened_at) <= TOLERANCE_MS
            ),
            None,
        )
        if match is None:
            problems.append(f"stream {key} closed but never opened")
            continue
        open_event = candidates.pop(match)
        streams.append(
            (
                open_event["data"]["response_bytes"],
                open_event["time"],
                close_event["data"]["first_byte_ms"],
                close_event["data"]["duration_ms"],
            )
        )
    for key, leftovers in opened.items():
        for _ in leftovers:
            problems.append(f"stream {key} opened but never closed")
    return streams, handshakes, problems


def _entry_records(har_doc: dict) -> tuple[list[tuple], list[float]]:
    """Per non-failed entry: (bytes, issue_at, wait, wait+receive).

    Also returns the ``connect`` values of connection-opening entries
    for the handshake cross-check.
    """
    entries: list[tuple] = []
    opener_connects: list[float] = []
    for raw in har_doc["log"]["entries"]:
        if raw.get("_failed"):
            continue
        timings = raw["timings"]
        issue_at = (
            raw["startedDateTime"]
            + timings["dns"]
            + timings["blocked"]
            + timings["connect"]
        )
        entries.append(
            (
                raw["response"]["bodySize"],
                issue_at,
                timings["wait"],
                timings["wait"] + timings["receive"],
            )
        )
        if not raw.get("_reused", False):
            opener_connects.append(timings["connect"])
    return entries, opener_connects


def compare_visit(document: dict) -> list[str]:
    """Cross-check one exported visit document; returns discrepancies.

    The document is a :meth:`repro.browser.browser.PageVisit.to_dict`
    payload carrying a ``trace``.  Visits degraded by fault injection
    get the relaxed treatment (orphaned streams from torn-down
    connections are expected); fault-free visits must match exactly.
    """
    trace = document.get("trace")
    if trace is None:
        return [f"{document.get('pageUrl')}: visit carries no trace"]
    degraded = document.get("status", "ok") != "ok"
    streams, handshakes, problems = _stream_records(trace)
    if degraded:
        # Torn-down connections legitimately orphan streams.
        problems = []
    entries, opener_connects = _entry_records(document["har"])
    label = f"{document.get('pageUrl')} [{document.get('protocolMode')}]"
    discrepancies = [f"{label}: {p}" for p in problems]

    if degraded:
        # Entry-by-entry containment: every completed entry must still
        # have a matching stream, but extra streams are tolerated.
        pool = sorted(streams)
        for entry in sorted(entries):
            match = _take_match(pool, entry)
            if match is None:
                discrepancies.append(
                    f"{label}: no trace stream matches entry "
                    f"(bytes={entry[0]}, issued={entry[1]:.3f}ms)"
                )
        return discrepancies

    if len(streams) != len(entries):
        discrepancies.append(
            f"{label}: {len(streams)} trace streams vs "
            f"{len(entries)} HAR entries"
        )
    for stream, entry in zip(sorted(streams), sorted(entries)):
        for index, what in ((0, "response bytes"), (1, "issue time"),
                            (2, "wait/first-byte"), (3, "wait+receive/duration")):
            if abs(stream[index] - entry[index]) > TOLERANCE_MS:
                discrepancies.append(
                    f"{label}: {what} mismatch — trace={stream[index]!r} "
                    f"har={entry[index]!r}"
                )
    trace_hs = sorted(handshakes)
    har_hs = sorted(opener_connects)
    if len(trace_hs) != len(har_hs):
        discrepancies.append(
            f"{label}: {len(trace_hs)} handshakes traced vs "
            f"{len(har_hs)} connection-opening entries"
        )
    else:
        for traced, reported in zip(trace_hs, har_hs):
            if abs(traced - reported) > TOLERANCE_MS:
                discrepancies.append(
                    f"{label}: handshake connect_ms {traced!r} vs "
                    f"HAR connect {reported!r}"
                )
    return discrepancies


def _take_match(pool: list[tuple], entry: tuple) -> tuple | None:
    """Pop the first stream in ``pool`` matching ``entry`` within tolerance."""
    for index, stream in enumerate(pool):
        if all(abs(stream[i] - entry[i]) <= TOLERANCE_MS for i in range(4)):
            return pool.pop(index)
    return None


def validate_documents(documents: Iterable[dict]) -> tuple[int, list[str]]:
    """Cross-check many visit documents; returns (count, discrepancies)."""
    checked = 0
    discrepancies: list[str] = []
    for document in documents:
        checked += 1
        discrepancies.extend(compare_visit(document))
    return checked, discrepancies


def _self_run_documents(sites: int, pages: int, seed: int) -> list[dict]:
    """Run a small traced campaign and yield every visit document."""
    from repro.measurement import CampaignConfig, CampaignPlan, execute
    from repro.web.topsites import GeneratorConfig, cached_universe

    universe = cached_universe(GeneratorConfig(n_sites=sites), seed=seed)
    config = CampaignConfig(trace=True, collect_counters=True, seed=seed)
    result = execute(
        CampaignPlan(universe, sim=config, pages=universe.pages[:pages])
    )
    documents: list[dict] = []
    for paired in result.paired_visits:
        documents.append(paired.h2.to_dict())
        documents.append(paired.h3.to_dict())
    return documents


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.har_vs_trace",
        description="Cross-check HAR timings against qlog traces.",
    )
    parser.add_argument(
        "visits",
        nargs="?",
        help="JSONL file of exported visit documents "
        "(default: self-run a traced smoke campaign)",
    )
    parser.add_argument("--sites", type=int, default=8,
                        help="self-run universe size (default 8)")
    parser.add_argument("--pages", type=int, default=6,
                        help="self-run page count (default 6)")
    parser.add_argument("--seed", type=int, default=7,
                        help="self-run seed (default 7)")
    args = parser.parse_args(argv)

    if args.visits:
        with open(args.visits) as handle:
            documents = [json.loads(line) for line in handle if line.strip()]
    else:
        documents = _self_run_documents(args.sites, args.pages, args.seed)

    checked, discrepancies = validate_documents(documents)
    for line in discrepancies:
        print(f"MISMATCH {line}", file=sys.stderr)
    status = "clean" if not discrepancies else f"{len(discrepancies)} mismatches"
    print(f"har_vs_trace: {checked} visits cross-checked, {status}")
    return 0 if not discrepancies else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
