"""Per-layer ledger: where a profiled pass spends CPU, and exact work counts.

A layer is a package of ``repro`` (``repro/<layer>/``).  From one
``cProfile`` run the ledger derives, per layer:

* ``self_pct`` — the layer's share of profiled busy self-time.  Code
  outside ``repro`` (C builtins, the standard library) has no layer of
  its own: its self-time goes to the layers of its callers, split by
  the time each caller edge accounts for.  The C event kernel's own
  methods count as ``events``.  The profiler's clock is the wall clock
  (a CPU clock costs a system call per event and slows the profiled
  pass sixfold), so time blocked in the primitives of :data:`WAITS` —
  the pooled workload's parent waiting on its workers — is not busy
  time and is left out.
* ``calls_per_visit`` — Python calls into the layer's functions per
  paired visit.  Restricted to ``repro`` code these counts repeat
  exactly from run to run, so they can be compared exactly.

Named functions (``Link.transmit``, ``Timer.start`` …) are counted the
same way.  A named function that no longer exists counts as ``None``.

This module imports nothing from ``repro`` at import time, so the
orchestrator can read the metric table without paying for the import.
"""

from __future__ import annotations

import importlib
import os
import pstats
from dataclasses import dataclass

LAYERS = (
    "events", "netsim", "transport", "tls", "dns", "http", "browser",
    "cdn", "faults", "web", "measurement", "store", "obs", "check",
)

#: Blocking primitives, as the profiler names them: their self-time is
#: waiting, not work.
WAITS = frozenset((
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method posix.waitpid>",
    "<built-in method time.sleep>",
    "<built-in method select.select>",
    "<method 'poll' of 'select.poll' objects>",
))

#: Counted functions, as ``module:qualified.name``.
COUNTED = {
    "timer_starts": ("repro.events.loop:Timer.start",),
    "scheduled": ("repro.events:EventLoop.call_at", "repro.events:EventLoop.call_later"),
    "packets": ("repro.netsim.link:Link.transmit",),
    "reserved": ("repro.netsim.link:Link.reserve_transmit",),
    "delivered": ("repro.netsim.link:Link._deliver",),
    "payload_bytes_reads": ("repro.netsim.packet:Packet.payload_bytes",),
    "connects": ("repro.transport.base:BaseConnection.connect",),
    "requests": ("repro.transport.base:BaseConnection.request",),
    "ticket_lookups": ("repro.tls.session_cache:SessionTicketCache.lookup",),
    "resolves": ("repro.dns.resolver:DnsResolver.resolve",),
    "fetches": ("repro.http.pool:ConnectionPool.fetch",),
    "page_loads": ("repro.browser.browser:Browser.visit",),
    "serves": ("repro.cdn.edge:EdgeServer.serve", "repro.cdn.origin:OriginServer.serve"),
    "tier_lookups": ("repro.cdn.hierarchy:TierChain.lookup",),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: Whether two runs of the same code give exactly the same value.
    exact: bool


#: Counts reported per visit, by layer: ``<layer>.<stem>_per_visit``.
#: ``dispatched`` comes from the loop profile, the rest from :data:`COUNTED`.
PER_VISIT = {
    "events": ("dispatched", "scheduled", "timer_starts"),
    "netsim": ("packets", "reserved", "payload_bytes_reads"),
    "transport": ("connects", "requests"),
    "tls": ("ticket_lookups",),
    "dns": ("resolves",),
    "http": ("fetches",),
    "browser": ("page_loads",),
    "cdn": ("serves", "tier_lookups"),
}


def _metric_table() -> tuple[LayerMetric, ...]:
    extra = {
        "netsim": (
            LayerMetric("netsim.fastpath_packet_share", "ratio", "higher", True),
            LayerMetric("netsim.delivered_ratio", "ratio", "higher", True),
        ),
        "http": (LayerMetric("http.fetches_per_connect", "ratio", "higher", True),),
        "measurement": (
            LayerMetric("measurement.outside_visit_pct", "%", "lower", False),
            LayerMetric("measurement.parent_cpu_pct", "%", "lower", False),
        ),
        "store": (
            LayerMetric("store.get_ms_per_visit", "ms", "lower", False),
            LayerMetric("store.put_ms_per_visit", "ms", "lower", False),
            LayerMetric("store.bytes_per_visit", "B", "lower", True),
        ),
    }
    table = []
    for layer in LAYERS:
        table.append(LayerMetric(f"{layer}.self_pct", "%", "lower", False))
        table.append(LayerMetric(f"{layer}.calls_per_visit", "calls", "lower", True))
        for stem in PER_VISIT.get(layer, ()):
            table.append(LayerMetric(f"{layer}.{stem}_per_visit", "count", "lower", True))
        table.extend(extra.get(layer, ()))
    table.append(LayerMetric("trace.overhead_pct", "%", "lower", False))
    return tuple(table)


#: Every per-layer metric, in report order.
METRICS: tuple[LayerMetric, ...] = _metric_table()


def profile_key(dotted: str) -> tuple | None:
    """The pstats key of ``module:qualified.name``, or None if it is gone.

    Python functions (and property getters) are keyed by their code
    object; C methods by the descriptor ``repr`` the profiler records.
    """
    module_name, _, qualname = dotted.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    if isinstance(obj, property):
        obj = obj.fget
    code = getattr(obj, "__code__", None)
    if code is not None:
        return (code.co_filename, code.co_firstlineno, code.co_name)
    return ("~", 0, repr(obj))


class Ledger:
    """Layer attribution of one profile."""

    def __init__(self, profiler) -> None:
        import repro

        self._root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._stats = pstats.Stats(profiler).stats
        self._shares: dict[tuple, dict[str, float]] = {}
        self.total_self_s = 0.0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        for key, (_cc, ncalls, self_s, _cum, _callers) in self._stats.items():
            if key[0] == "~" and key[2] in WAITS:
                continue
            self.total_self_s += self_s
            for layer, share in self._layer_shares(key, ())[0].items():
                self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s * share
            layer = self._own_layer(key)
            if layer is not None and key[0] != "~":
                self.calls[layer] = self.calls.get(layer, 0) + ncalls

    def _own_layer(self, key: tuple) -> str | None:
        filename, _line, name = key
        if filename == "~":
            return "events" if "repro.events._ckernel." in name else None
        if not filename.startswith(self._root):
            return None
        head = filename[len(self._root):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head

    def _layer_shares(
        self, key: tuple, path: tuple
    ) -> tuple[dict[str, float], bool]:
        """How ``key``'s self-time splits over layers.

        Returns the split and whether it depended on ``path``: a caller
        already on the path is a recursion edge and is skipped, so such
        a split is not memoized.
        """
        cached = self._shares.get(key)
        if cached is not None:
            return cached, False
        layer = self._own_layer(key)
        if layer is not None:
            self._shares[key] = {layer: 1.0}
            return self._shares[key], False
        callers = self._stats[key][4]
        dependent = any(caller in path for caller in callers)
        weights = {
            caller: edge[2] for caller, edge in callers.items()
            if caller in self._stats and caller not in path
        }
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: 1.0 for caller in weights}
            total = float(len(weights))
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            caller_shares, caller_dependent = self._layer_shares(
                caller, path + (key,)
            )
            dependent = dependent or caller_dependent
            for owner, share in caller_shares.items():
                shares[owner] = shares.get(owner, 0.0) + share * weight / total
        if not shares:
            shares = {"other": 1.0}
        if not dependent:
            self._shares[key] = shares
        return shares, dependent

    def self_pct(self, layer: str) -> float:
        if self.total_self_s <= 0.0:
            return 0.0
        return 100.0 * self.self_s.get(layer, 0.0) / self.total_self_s

    def count(self, stem: str) -> int | None:
        """Calls of the named functions behind ``COUNTED[stem]``."""
        total = 0
        for dotted in COUNTED[stem]:
            key = profile_key(dotted)
            if key is None:
                return None
            entry = self._stats.get(key)
            total += entry[1] if entry is not None else 0
        return total


def _ratio(numerator, denominator):
    if numerator is None or denominator is None or denominator == 0:
        return None
    return numerator / denominator


def layer_metrics(
    ledger: Ledger,
    visits: int,
    *,
    dispatched: int,
    outside_visit_pct: float,
    parent_cpu_pct: float,
    store_ms_per_visit: tuple[float, float],
    bytes_per_visit: float | None,
    overhead_pct: float,
) -> dict[str, float | None]:
    """Every metric of :data:`METRICS` from one profile plus the extras.

    ``store_ms_per_visit`` is the stores' ``(get, put)`` wall ms per
    visit, timed outside the profiler.
    """
    values: dict[str, float | None] = {}
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = ledger.self_pct(layer)
        values[f"{layer}.calls_per_visit"] = ledger.calls.get(layer, 0) / visits
    counts = {stem: ledger.count(stem) for stem in COUNTED}
    counts["dispatched"] = dispatched
    for layer, stems in PER_VISIT.items():
        for stem in stems:
            values[f"{layer}.{stem}_per_visit"] = _ratio(counts[stem], visits)
    reserved, packets = counts["reserved"], counts["packets"]
    sent = None if reserved is None or packets is None else reserved + packets
    delivered = (
        None if reserved is None or counts["delivered"] is None
        else reserved + counts["delivered"]
    )
    values["netsim.fastpath_packet_share"] = _ratio(reserved, sent)
    values["netsim.delivered_ratio"] = _ratio(delivered, sent)
    values["http.fetches_per_connect"] = _ratio(counts["fetches"], counts["connects"])
    values["measurement.outside_visit_pct"] = outside_visit_pct
    values["measurement.parent_cpu_pct"] = parent_cpu_pct
    values["store.get_ms_per_visit"], values["store.put_ms_per_visit"] = (
        store_ms_per_visit
    )
    values["store.bytes_per_visit"] = bytes_per_visit
    values["trace.overhead_pct"] = overhead_pct
    return {metric.name: values[metric.name] for metric in METRICS}
