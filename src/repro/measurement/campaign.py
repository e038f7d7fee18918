"""Campaign configuration and results: the paper's Section III-B protocol.

A campaign visits every target page from every probe, once per
protocol mode (H2 baseline and H3-enabled), using the double-visit
trick to warm edge caches, and collects one :class:`PairedVisit` per
(probe, page).  ``execute(CampaignPlan(...))`` from
:mod:`repro.measurement.executor` runs it; the :class:`CampaignResult`
it returns is what all Table II / Fig. 2–7 analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.browser.browser import H2_ONLY, H3_ENABLED, PageVisit
from repro.cdn.compression import CompressionConfig
from repro.cdn.hierarchy import HierarchyConfig
from repro.faults import FaultProfile
from repro.measurement.outcome import VisitFailure
from repro.measurement.summary import CampaignSummary
from repro.netsim.proxy import ProxyConfig
from repro.transport.config import TransportConfig
from repro.web.page import Webpage
from repro.web.topsites import WebUniverse

if TYPE_CHECKING:  # leaf-module import would still cycle via repro.store
    from repro.store.stats import StoreStats


@dataclass(frozen=True)
class SimConfig:
    """Everything that shapes *what a visit measures*.

    These are exactly the store-keyed knobs plus the knobs that select
    which visits run: changing any of them changes the simulation (or
    the set of simulations), so two campaigns agree bit-for-bit iff
    their ``SimConfig``s agree.  Pair with a :class:`TelemetryConfig`
    via ``CampaignConfig.from_groups`` to obtain a full campaign
    configuration.
    """

    #: Visits per page per mode; the last one is recorded (paper: 2).
    visits_per_page: int = 2
    #: Probes per vantage point (paper: 3).
    probes_per_vantage: int = 1
    #: Limit to the first N vantage points (None = all three).
    max_vantage_points: int | None = 1
    #: netem loss imposed at every probe (the Fig. 9 knob).
    loss_rate: float = 0.0
    #: Probe access-link rate.
    rate_mbps: float | None = 50.0
    #: Pre-seed edge caches with popular objects before measuring.
    warm_popular: bool = True
    #: Base seed; probes derive their own streams from it.
    seed: int = 0
    #: Transport-level configuration shared by all probes.
    transport_config: TransportConfig = field(default_factory=TransportConfig)
    #: Disable TLS session tickets everywhere (ablation).
    use_session_tickets: bool = True
    #: Scripted fault profile applied at every probe.
    fault_profile: FaultProfile | None = None
    #: Proxy hop on every probe↔host path (``None`` = direct paths).
    proxy: ProxyConfig | None = None
    #: Multi-tier cache chain on every edge (``None`` = flat LRU,
    #: bit-identical to pre-hierarchy builds).
    cache_hierarchy: "HierarchyConfig | None" = None
    #: Compression/format negotiation (``None`` = encoding-oblivious
    #: serving, bit-identical to pre-compression builds).
    compression: "CompressionConfig | None" = None


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything observe-only: instrumentation that never changes results.

    Each knob here carries the same guarantee as :mod:`repro.obs` —
    toggling it leaves every simulated timing, HAR and counter-relevant
    outcome bit-identical.  (Note ``collect_counters``/``trace``/
    ``strict`` *do* participate in store content keys for historical
    reasons — the stored documents carry the collected telemetry — so
    flipping them changes cache hits, never results.)
    """

    #: Collect a per-visit counter registry (handshakes, 0-RTT, HoL).
    collect_counters: bool = False
    #: Attach a qlog-style event tracer to every connection.
    trace: bool = False
    #: Run every visit under the :mod:`repro.check` invariant checker.
    strict: bool = False
    #: Sim-time metrics sampling interval (ms); ``None`` disables.
    metrics_interval_ms: float | None = None
    #: Ring-buffer capacity per metrics sampler.
    metrics_max_samples: int = 512
    #: Record hierarchical spans (visit → phase → transfer) per visit.
    spans: bool = False
    #: Enable event-loop callback profiling on every probe.
    profile_loop: bool = False
    #: Emit live progress heartbeats to stderr while the campaign runs.
    progress: bool = False


#: Flat CampaignConfig fields that belong to each group (the
#: decomposition map; store keys keep reading the flat names).
SIM_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SimConfig))
TELEMETRY_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(TelemetryConfig))


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-level knobs — the flat union of :class:`SimConfig` + :class:`TelemetryConfig`.

    Store keys (and the config hash run manifests record) read the flat
    field names, and ``dataclasses.replace`` works on them directly.
    Use :attr:`sim` / :attr:`telemetry` to decompose and
    :meth:`from_groups` to compose.
    """

    #: Visits per page per mode; the last one is recorded (paper: 2).
    visits_per_page: int = 2
    #: Probes per vantage point (paper: 3). The default of 1 keeps the
    #: standard campaign tractable; analyses aggregate across probes.
    probes_per_vantage: int = 1
    #: Limit to the first N vantage points (None = all three).
    max_vantage_points: int | None = 1
    #: netem loss imposed at every probe (the Fig. 9 knob).
    loss_rate: float = 0.0
    #: Probe access-link rate.
    rate_mbps: float | None = 50.0
    #: Pre-seed edge caches with popular objects before measuring.
    warm_popular: bool = True
    #: Base seed; probes derive their own streams from it.
    seed: int = 0
    #: Transport-level configuration shared by all probes.
    transport_config: TransportConfig = field(default_factory=TransportConfig)
    #: Disable TLS session tickets everywhere (ablation).
    use_session_tickets: bool = True
    #: Collect a per-visit counter registry (handshakes, 0-RTT, HoL,
    #: packets).  Purely observational: results are bit-identical on/off.
    collect_counters: bool = False
    #: Attach a qlog-style event tracer to every connection and carry
    #: the per-visit traces in the results (implies heavier visits).
    trace: bool = False
    #: Scripted fault profile applied at every probe (``None`` keeps
    #: the fault machinery dormant; results are then bit-identical to
    #: fault-free builds).
    fault_profile: FaultProfile | None = None
    #: Run every visit under the :mod:`repro.check` invariant checker;
    #: the first violation raises.  Observe-only: results with strict
    #: on are identical to strict off.
    strict: bool = False
    #: Sim-time metrics sampling interval (ms) for the
    #: :mod:`repro.obs.metrics` samplers; ``None`` disables sampling.
    #: Observe-only and excluded from store content keys.
    metrics_interval_ms: float | None = None
    #: Ring-buffer capacity per metrics sampler.
    metrics_max_samples: int = 512
    #: Record hierarchical spans (visit → phase → transfer) per visit.
    #: Observe-only and excluded from store content keys.
    spans: bool = False
    #: Enable event-loop callback profiling on every probe and carry
    #: the per-visit profiles in the outcomes (wall-clock diagnostics;
    #: stripped before store writes).
    profile_loop: bool = False
    #: Emit live progress heartbeats to stderr while the campaign runs
    #: and record a progress summary on the result.  Wall-clock only;
    #: never affects results or store keys.
    progress: bool = False
    #: Proxy hop on every probe↔host path (``None`` = direct paths).
    #: Result-affecting: part of the store content key.
    proxy: ProxyConfig | None = None
    #: Multi-tier cache chain on every edge (``None`` = flat LRU).
    #: Result-affecting: part of the store content key (schema v3).
    cache_hierarchy: "HierarchyConfig | None" = None
    #: Compression/format negotiation (``None`` = encoding-oblivious).
    #: Result-affecting: part of the store content key (schema v3).
    compression: "CompressionConfig | None" = None

    # -- groups --------------------------------------------------------

    @property
    def sim(self) -> SimConfig:
        """The simulation-shaping knobs as a :class:`SimConfig` group."""
        return SimConfig(**{name: getattr(self, name) for name in SIM_FIELDS})

    @property
    def telemetry(self) -> TelemetryConfig:
        """The observe-only knobs as a :class:`TelemetryConfig` group."""
        return TelemetryConfig(
            **{name: getattr(self, name) for name in TELEMETRY_FIELDS}
        )

    @classmethod
    def from_groups(
        cls,
        sim: SimConfig | None = None,
        telemetry: TelemetryConfig | None = None,
    ) -> "CampaignConfig":
        """Compose the two frozen groups into a flat config."""
        sim = sim or SimConfig()
        telemetry = telemetry or TelemetryConfig()
        knobs = {name: getattr(sim, name) for name in SIM_FIELDS}
        knobs.update({name: getattr(telemetry, name) for name in TELEMETRY_FIELDS})
        return cls(**knobs)


@dataclass
class PairedVisit:
    """One page measured under both protocol modes by one probe."""

    page: Webpage
    probe_name: str
    h2: PageVisit
    h3: PageVisit
    #: Event-loop callback profile for this visit's simulation
    #: (``config.profile_loop``): ``{qualname: {"count", "total_ms"}}``.
    #: Wall-clock — diagnostic only, never stored or compared.
    loop_profile: dict | None = None

    @property
    def plt_reduction_ms(self) -> float:
        """The paper's PLT_reduction = PLT_H2 − PLT_H3 (positive ⇒ H3 wins)."""
        return self.h2.plt_ms - self.h3.plt_ms


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    universe: WebUniverse
    config: CampaignConfig
    paired_visits: list[PairedVisit]
    #: Visits that could not be measured at all (fault injection only);
    #: a failed visit is recorded here instead of poisoning the run.
    failures: list[VisitFailure] = field(default_factory=list)
    #: Store hit/miss/resume accounting when the campaign ran against a
    #: :class:`~repro.store.ResultStore` (``None`` otherwise).  Kept off
    #: the counter registry so counter totals stay bit-identical between
    #: warm-store and fresh runs.
    store_stats: StoreStats | None = None
    #: Constant-memory fold of every outcome, populated by the
    #: streaming executor.  In ``summary_only`` mode this is the *only*
    #: record of the measurements (``paired_visits`` stays empty); in
    #: materialized mode it equals ``CampaignSummary.from_result(self)``
    #: field for field.
    summary: CampaignSummary | None = None
    #: Streaming-executor diagnostics (in-flight high-water, reorder
    #: backlog, unit counts).  Wall-clock/scheduling only — never part
    #: of results.
    exec_stats: dict | None = None
    #: Merged event-loop callback profile (``config.profile_loop``):
    #: ``{qualname: {"count", "total_ms"}}`` in canonical visit order,
    #: sorted by cumulative time.  Wall-clock — diagnostic only.
    loop_profile: dict | None = None
    #: Live-progress summary (``config.progress``): visits/s, events/s,
    #: peak RSS, wall-clock.  Diagnostic only.
    progress: dict | None = None

    def degraded_visits(self) -> list[PairedVisit]:
        """Paired visits where either mode was degraded by faults."""
        return [
            pv
            for pv in self.paired_visits
            if pv.h2.status != "ok" or pv.h3.status != "ok"
        ]

    def visits(self, mode: str) -> list[PageVisit]:
        """All recorded visits for one protocol mode."""
        if mode == H2_ONLY:
            return [pv.h2 for pv in self.paired_visits]
        if mode == H3_ENABLED:
            return [pv.h3 for pv in self.paired_visits]
        raise ValueError(f"unknown mode {mode!r}")

    def entries(self, mode: str):
        """Flat iterator over HAR entries for one mode."""
        for visit in self.visits(mode):
            yield from visit.entries

    @property
    def pages_measured(self) -> int:
        if not self.paired_visits and self.summary is not None:
            return self.summary.pages_measured
        return len({pv.page.url for pv in self.paired_visits})

    def counter_totals(self):
        """Merged counter registry across every recorded visit.

        Visits are merged in canonical (vantage, probe, page) order —
        the order ``paired_visits`` already has regardless of worker
        count — so the totals are deterministic and identical for any
        parallelism.
        """
        from repro.obs.counters import CounterRegistry

        totals = CounterRegistry()
        for paired in self.paired_visits:
            for visit in (paired.h2, paired.h3):
                if visit.counters:
                    totals.merge_dict(visit.counters)
        return totals

    def trace_events(self):
        """Flat iterator over trace events, tagged with visit context."""
        for paired in self.paired_visits:
            for mode, visit in (("h2-only", paired.h2), ("h3-enabled", paired.h3)):
                if not visit.trace:
                    continue
                for event in visit.trace:
                    yield {
                        "page": paired.page.url,
                        "probe": paired.probe_name,
                        "mode": mode,
                        **event,
                    }

    def metrics_events(self):
        """Flat iterator over metrics samples, tagged with visit context.

        Canonical (vantage, probe, page) order, the same discipline as
        :meth:`counter_totals` — deterministic for any worker count.
        """
        for paired in self.paired_visits:
            for mode, visit in (("h2-only", paired.h2), ("h3-enabled", paired.h3)):
                if not visit.metrics:
                    continue
                for record in visit.metrics:
                    yield {
                        "page": paired.page.url,
                        "probe": paired.probe_name,
                        "mode": mode,
                        **record,
                    }

    def span_records(self):
        """Flat iterator over spans, tagged with visit context.

        Span ids restart per visit; the (page, probe, mode) tags make
        each visit's id space unambiguous.  Sim-time fields are
        deterministic; ``wall_ms`` is host-dependent by nature.
        """
        for paired in self.paired_visits:
            for mode, visit in (("h2-only", paired.h2), ("h3-enabled", paired.h3)):
                if not visit.spans:
                    continue
                for span in visit.spans:
                    yield {
                        "page": paired.page.url,
                        "probe": paired.probe_name,
                        "mode": mode,
                        **span,
                    }
