"""Post-visit validators: HAR field consistency and pool accounting.

These run once per page visit (cold path), after the browser closes
the pool, so they can afford whole-visit passes:

* every timing phase is non-negative and ``ssl`` fits inside
  ``connect``;
* the phases of an entry sum to the entry's total time within
  :data:`~repro.check.context.EPSILON_MS` — the invariant that caught
  the DNS latency misattribution bugs (coalesced waiters and retried
  lookups both skewed ``dns`` against wall-clock entry time);
* PLT bounds every entry's end (onLoad fires last);
* pool counters are non-negative and internally consistent — in
  fault-free runs every request is exactly one HAR entry.  The
  request-accounting identity (one created or one reused connection
  ride per request) is checked once, by ``ConnectionPool.close``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from repro.check.context import EPSILON_MS, CheckContext

if TYPE_CHECKING:  # pragma: no cover - avoids a browser<->check cycle
    from repro.browser.har import HarEntry, HarLog


def check_entry(
    check: CheckContext,
    entry: HarEntry,
    har_started_at_ms: float,
    plt_ms: float,
) -> None:
    """Field-consistency checks for one HAR entry."""
    t = entry.timings
    for phase, value in (
        ("blocked", t.blocked),
        ("dns", t.dns),
        ("connect", t.connect),
        ("ssl", t.ssl),
        ("send", t.send),
        ("wait", t.wait),
        ("receive", t.receive),
    ):
        check.require(
            value >= -EPSILON_MS,
            "har:phase_nonnegative",
            f"timing phase {phase!r} is negative",
            time_ms=entry.started_at_ms,
            url=entry.url,
            phase=phase,
            value=value,
        )
    check.require(
        t.ssl <= t.connect + EPSILON_MS or t.connect == 0.0,
        "har:ssl_within_connect",
        "ssl time exceeds connect time",
        time_ms=entry.started_at_ms,
        url=entry.url,
        ssl=t.ssl,
        connect=t.connect,
    )
    check.require(
        abs(t.total - entry.time_ms) <= EPSILON_MS,
        "har:phases_sum_to_total",
        "timing phases do not sum to the entry's total time",
        time_ms=entry.started_at_ms,
        url=entry.url,
        phase_sum=t.total,
        time_ms_field=entry.time_ms,
    )
    entry_end = entry.started_at_ms + entry.time_ms - har_started_at_ms
    check.require(
        plt_ms >= entry_end - EPSILON_MS,
        "har:plt_bounds_entries",
        "entry finishes after onLoad (PLT < entry end)",
        time_ms=entry.started_at_ms,
        url=entry.url,
        plt_ms=plt_ms,
        entry_end_ms=entry_end,
    )


def check_har(check: CheckContext, har: HarLog) -> None:
    """Whole-HAR consistency: every entry, against the page's PLT."""
    check.require(
        har.on_load_ms >= 0.0,
        "har:plt_nonnegative",
        "PLT is negative",
        plt_ms=har.on_load_ms,
        url=har.page_url,
    )
    for entry in har.entries:
        check_entry(check, entry, har.started_at_ms, har.on_load_ms)


def check_visit(check: CheckContext, visit, faults_active: bool) -> None:
    """Validate one finished :class:`~repro.browser.browser.PageVisit`.

    ``faults_active`` relaxes the accounting identities that scripted
    faults legitimately break (DNS-failure entries never reach the
    pool; re-dispatched fetches ride extra connections).
    """
    check_har(check, visit.har)
    stats = visit.pool_stats
    for counter in fields(stats):
        name = counter.name
        value = getattr(stats, name)
        check.require(
            value >= 0,
            "pool:counter_nonnegative",
            f"pool counter {name!r} is negative",
            counter=name,
            value=value,
        )
    n_entries = len(visit.har.entries)
    if faults_active:
        # Synthesized DNS-failure entries never touch the pool, so
        # requests can only undershoot the entry count.
        check.require(
            stats.requests <= n_entries,
            "pool:requests_vs_entries",
            "more pool requests than HAR entries",
            requests=stats.requests,
            entries=n_entries,
        )
    else:
        check.require(
            stats.requests == n_entries,
            "pool:requests_vs_entries",
            "pool requests != HAR entries in a fault-free visit",
            requests=stats.requests,
            entries=n_entries,
        )
        check.require(
            stats.failed_requests == 0
            and stats.retried_requests == 0
            and stats.h3_fallbacks == 0
            and stats.connect_timeouts == 0
            and stats.connection_resets == 0,
            "pool:no_faults_no_recovery",
            "fault-recovery counters nonzero without a fault profile",
        )
    check.require(
        stats.resumed_connections <= stats.connections_created,
        "pool:resumed_within_created",
        "more resumed connections than connections created",
        resumed=stats.resumed_connections,
        created=stats.connections_created,
    )
    check.require(
        stats.zero_rtt_connections <= stats.connections_created,
        "pool:zero_rtt_within_created",
        "more 0-RTT connections than connections created",
        zero_rtt=stats.zero_rtt_connections,
        created=stats.connections_created,
    )
