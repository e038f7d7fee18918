"""The browser: page loading, protocol selection, HAR capture.

Mirrors the paper's instrumented Chrome:

* Separate protocol modes per "browser instance" — ``h2-only`` for the
  H2 baseline, ``h3-enabled`` for the ``--enable-quic`` run (Section
  III-B's separate user-data directories).
* HTML loads first from the site origin; wave-0 subresources are
  discovered from the HTML; wave-1 resources (font files referenced by
  CSS, XHRs issued by scripts) dispatch once the wave-0 CSS/JS have
  loaded.
* Every response is classified CDN/non-CDN + provider at collection
  time (the paper runs LocEdge over its HAR files).
* PLT is the time from navigation start to completion of every
  resource (the ``onLoad`` event).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

from repro.browser.har import HarLog
from repro.cdn.classifier import classify_response
from repro.cdn.compression import client_accept_encoding
from repro.check.visit import check_visit
from repro.dns import DnsConfig, DnsResolver
from repro.events import EventLoop
from repro.faults.inject import FaultInjector
from repro.http.alt_svc import AltSvcCache
from repro.http.messages import HarEntry, HttpProtocol
from repro.http.pool import ConnectionPool, Fetch, PoolStats
from repro.netsim.path import NetworkPath
from repro.tls.session_cache import SessionTicketCache
from repro.transport.config import TransportConfig
from repro.web.page import Webpage
from repro.web.resource import Resource, ResourceType


class Farm(TypingProtocol):
    """What the browser needs from the measurement-layer server farm
    (it asks for each host's server and path once, and keeps them)."""

    proxy_cache: object | None  # the proxy's ``LruCache``, or None

    def server(self, hostname: str):
        ...  # pragma: no cover - protocol stub

    def path(self, hostname: str) -> NetworkPath:
        ...  # pragma: no cover - protocol stub


#: Protocol modes the measurement harness uses.
H2_ONLY = "h2-only"
H3_ENABLED = "h3-enabled"
_H3 = HttpProtocol.H3


@dataclass
class BrowserConfig:
    """Browser-instance settings (one instance per protocol per probe)."""

    protocol_mode: str = H3_ENABLED
    #: Disables TLS session tickets entirely (Fig. 8 ablation).
    use_session_tickets: bool = True
    transport_config: TransportConfig = field(default_factory=TransportConfig)
    #: Stub-resolver behaviour (None disables DNS latency entirely).
    dns_config: DnsConfig | None = field(default_factory=DnsConfig)
    #: Compression-negotiation campaign config
    #: (:class:`repro.cdn.compression.CompressionConfig`).  ``None``
    #: keeps requests Accept-Encoding-free and the legacy serve path.
    compression: object | None = None

    def __post_init__(self) -> None:
        if self.protocol_mode not in (H2_ONLY, H3_ENABLED):
            raise ValueError(
                f"protocol_mode must be {H2_ONLY!r} or {H3_ENABLED!r}, "
                f"got {self.protocol_mode!r}"
            )


@dataclass
class PageVisit:
    """Result of one page load."""

    page_url: str
    protocol_mode: str
    har: HarLog
    plt_ms: float
    pool_stats: PoolStats
    #: Per-visit counter-registry snapshot (``CounterRegistry.to_dict``)
    #: when observability was attached; ``None`` otherwise.
    counters: dict | None = None
    #: Per-visit qlog-style trace events when tracing was on.  Fresh
    #: in-process visits carry a lazy :class:`~repro.obs.trace.TraceLog`
    #: (list-of-dicts compatible); visits rebuilt by :meth:`from_dict`
    #: carry the materialized plain list.
    trace: list | None = None
    #: Per-visit sim-time metrics samples (``metrics:`` records) when
    #: the sampler was attached; ``None`` otherwise.
    metrics: list | None = None
    #: Per-visit hierarchical spans (visit → phase → transfer) when
    #: span recording was on; ``None`` otherwise.
    spans: list | None = None
    #: ``"ok"`` normally; ``"degraded"`` when fault injection forced
    #: retries/fallback or failed individual fetches.  Serialized only
    #: when not ``"ok"`` so fault-free payloads keep their exact shape.
    status: str = "ok"

    @property
    def entries(self) -> list[HarEntry]:
        return self.har.entries

    @property
    def failed_entries(self) -> int:
        """Number of fetches that exhausted their retry budget."""
        return sum(1 for entry in self.har.entries if entry.failed)

    def to_dict(self) -> dict:
        """This visit as a plain JSON document (HAR-1.2 plus counters).

        Stored consecutive walks and
        :meth:`~repro.measurement.outcome.VisitOutcome.to_dict` use it.
        Campaign visits cross the worker→parent boundary and land in the
        store as binary records
        (:meth:`~repro.measurement.outcome.VisitOutcome.to_record`), not
        as this document.  Telemetry keys appear only when collected, so
        documents from observability-free runs are byte-identical to
        before.
        """
        document = {
            "format": "repro-h3cdn-visit/1",
            "pageUrl": self.page_url,
            "protocolMode": self.protocol_mode,
            "pltMs": self.plt_ms,
            "poolStats": self.pool_stats.to_dict(),
            "har": self.har.to_dict(),
        }
        if self.counters is not None:
            document["counters"] = self.counters
        if self.trace is not None:
            trace = self.trace
            document["trace"] = (
                trace.to_jsonable() if hasattr(trace, "to_jsonable") else trace
            )
        if self.metrics is not None:
            document["metrics"] = self.metrics
        if self.spans is not None:
            document["spans"] = self.spans
        if self.status != "ok":
            document["status"] = self.status
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "PageVisit":
        """Reconstruct a visit rendered by :meth:`to_dict`."""
        if document.get("format") != "repro-h3cdn-visit/1":
            raise ValueError(
                f"unrecognized visit format: {document.get('format')!r}"
            )
        return cls(
            page_url=document["pageUrl"],
            protocol_mode=document["protocolMode"],
            har=HarLog.from_dict(document["har"]),
            plt_ms=document["pltMs"],
            pool_stats=PoolStats.from_dict(document["poolStats"]),
            counters=document.get("counters"),
            trace=document.get("trace"),
            metrics=document.get("metrics"),
            spans=document.get("spans"),
            status=document.get("status", "ok"),
        )


class _Request(Fetch):
    """One resource, from its DNS lookup to its HAR entry: the pool's
    fetch of it too.

    The resolver's callbacks, the retry timer's and the pool's
    :meth:`complete` are bound methods of this slotted object, so a
    request creates no function or cell.  Faults or not, the lookup is
    the same (:meth:`_PageLoad.fetch` starts it); only an injector's
    SERVFAIL windows call :meth:`failed`, which retries after the
    policy's backoff and, once the retries are spent, records a failed
    entry.  One lookup is outstanding at a time.
    """

    __slots__ = ("load", "resource", "requested_at", "dns_ms")

    def __init__(self, load: "_PageLoad", resource: Resource) -> None:
        self.load = load
        self.resource = resource
        self.requested_at = load.browser.loop.now
        self.dns_ms = 0.0
        #: DNS retries until the name resolves; the pool then counts
        #: its own request retries here.
        self.attempts = 0

    def resolved(self, dns_ms: float) -> None:
        """The name resolved: fill the request fields, join the pool."""
        browser = self.load.browser
        loop = browser.loop
        resource = self.resource
        host = resource.host
        if self.attempts:
            # The resolver reports only the final attempt's latency; the
            # entry's dns phase must cover the whole span since the
            # request was made (failed attempts and backoff included) or
            # the phases no longer sum to the entry's total time.
            dns_ms = loop.now - self.requested_at
        self.dns_ms = dns_ms
        obs = browser.obs
        if dns_ms > 0 and obs is not None and obs.spans is not None:
            # Retroactive: the resolver just reported; zero-cost cached
            # answers are not worth a span each.
            spans = obs.spans
            spans.add(
                "phase", f"dns:{host}", loop.now - dns_ms, loop.now,
                parent=spans.current_visit,
            )
        server, self.path, protocol = browser.routes.get(host) or browser._route(host)
        self.server = server
        if protocol is _H3 and browser.alt_svc.broken_until:
            protocol = browser._pick_protocol(server)
        self.protocol = protocol
        url = self.url = resource.url
        self.request_bytes = resource.request_bytes
        self.response_bytes = resource.size_bytes
        compression = browser.config.compression
        if compression is None:
            self.accept_encoding = self.rtype = None
        else:
            rtype = self.rtype = resource.rtype._value_
            self.accept_encoding = client_accept_encoding(url, rtype, compression)
        self.load.pool.fetch(self)

    def failed(self) -> None:
        """The lookup SERVFAILed: retry, or record a failed entry."""
        browser = self.load.browser
        attempt = self.attempts
        faults = browser.faults
        resource = self.resource
        host = resource.host
        faults.record_fault("dns_failure", host, attempt=attempt)
        policy = faults.retry
        if attempt < policy.max_retries:
            faults.record_recovery("dns_retry", host, attempt=attempt + 1)
            self.attempts = attempt + 1
            browser.loop.call_later(
                policy.backoff_ms(attempt), browser.dns.resolve, host,
                self.resolved, self.failed,
            )
            return
        # Resolution never succeeded: record a failed entry so the
        # page load still terminates (graceful degradation).
        self.complete(
            HarEntry.failure(
                resource.url,
                host,
                browser._pick_protocol(browser.farm.server(host))._value_,
                self.requested_at,
                resource.request_bytes,
                browser.loop.now,
            )
        )

    def complete(self, entry: HarEntry) -> None:
        """Called as the entry ends: fill what only the browser knows,
        file the entry, count the page load down and dispatch what the
        entry unblocks."""
        load = self.load
        browser = load.browser
        resource = self.resource
        classification = classify_response(entry.host, entry.headers)
        entry.timings.dns = self.dns_ms
        started = self.requested_at
        entry.started_at_ms = started
        entry.time_ms = browser.loop.now - started
        # ``_value_``: the plain attribute behind the ``.value``
        # descriptor, read without a Python call.
        entry.resource_type = resource.rtype._value_
        entry.is_cdn = classification.is_cdn
        entry.provider = classification.provider_name
        load.har.entries.append(entry)
        load.outstanding -= 1
        if not load.outstanding:
            load.done.append(True)
        if resource.url in load.blocking0:
            load.blocking_remaining -= 1
        if resource.rtype is ResourceType.HTML:
            load.fetch(load.wave0)
        # With no render-blocking wave-0 resource this dispatches wave 1
        # right behind wave 0, when the HTML lands.
        if load.blocking_remaining == 0 and not load.wave1_dispatched:
            load.wave1_dispatched = True
            load.fetch(load.wave1)


class _PageLoad:
    """One page load in progress: its pool, its HAR and its waves.

    HTML first; its landing dispatches wave 0, and wave 1 follows once
    wave 0's render-blocking CSS/JS have all landed.  ``done`` gains
    one item when the last entry lands: the loop's stop test is its
    bound ``__len__``, a C call per dispatched event.
    """

    __slots__ = (
        "browser", "pool", "har", "wave0", "wave1", "blocking0",
        "outstanding", "blocking_remaining", "wave1_dispatched", "done",
    )

    def __init__(
        self, browser: "Browser", pool: ConnectionPool, page: Webpage, har: HarLog
    ) -> None:
        self.browser = browser
        self.pool = pool
        self.har = har
        self.wave1 = [r for r in page.resources if r.wave == 1]
        self.wave0 = [r for r in page.resources if r.wave == 0]
        self.blocking0 = {
            r.url for r in self.wave0
            if r.rtype in (ResourceType.CSS, ResourceType.JS)
        }
        self.outstanding = 1 + len(page.resources)
        self.blocking_remaining = len(self.blocking0)
        self.wave1_dispatched = not self.wave1  # nothing to defer
        self.done: list[bool] = []

    def fetch(self, resources) -> None:
        """Request ``resources``: each one's DNS lookup starts now."""
        dns = self.browser.dns
        for resource in resources:
            request = _Request(self, resource)
            if dns is None:
                request.resolved(0.0)
            else:
                dns.resolve(resource.host, request.resolved, request.failed)


class Browser:
    """A simulated Chrome profile bound to one probe's network."""

    def __init__(
        self,
        loop: EventLoop,
        farm: Farm,
        config: BrowserConfig | None = None,
        session_cache: SessionTicketCache | None = None,
        rng: random.Random | None = None,
        obs=None,
        faults: FaultInjector | None = None,
        check=None,
    ) -> None:
        self.loop = loop
        self.farm = farm
        self.config = config or BrowserConfig()
        #: Optional :class:`repro.check.CheckContext` (strict mode);
        #: threaded into every pool/connection and run over each
        #: finished visit.
        self.check = check
        self.session_cache = (
            session_cache if session_cache is not None else SessionTicketCache()
        )
        #: Optional :class:`repro.obs.ObsContext`; drained per visit.
        self.obs = obs
        #: Optional :class:`repro.faults.FaultInjector` shared with the
        #: probe; ``None`` keeps every fault/recovery hook dormant.
        self.faults = faults
        if obs is not None:
            self.session_cache.attach_counters(obs.counters)
        self.rng = rng or random.Random(0)
        self.alt_svc = AltSvcCache()
        #: host -> ``(server, path, protocol)``, filled by :meth:`_route`.
        self.routes: dict[str, tuple] = {}
        self.dns = (
            DnsResolver(
                loop,
                self.config.dns_config,
                rng=random.Random(self.rng.getrandbits(64)),
            )
            if self.config.dns_config is not None
            else None
        )
        if self.dns is not None and faults is not None:
            # Scripted SERVFAIL windows; cached answers keep resolving.
            self.dns.fail_filter = faults.dns_failure

    # ------------------------------------------------------------------

    def visit(self, page: Webpage) -> PageVisit:
        """Load ``page`` to completion and return the HAR + PLT.

        Each visit gets a fresh connection pool (the harness terminates
        all connections between visits); the session-ticket cache is
        owned by the browser and persists across visits until
        :meth:`clear_session_state` is called.
        """
        if self.faults is not None:
            self.faults.begin_visit()
        pool = ConnectionPool(
            self.loop,
            session_cache=self.session_cache,
            transport_config=self.config.transport_config,
            rng=random.Random(self.rng.getrandbits(64)),
            use_session_tickets=self.config.use_session_tickets,
            obs=self.obs,
            faults=self.faults,
            alt_svc=self.alt_svc,
            check=self.check,
            proxy_cache=self.farm.proxy_cache,
        )
        har = HarLog(page_url=page.url, started_at_ms=self.loop.now)
        start = self.loop.now
        events_before = self.loop.processed_events
        spans = self.obs.spans if self.obs is not None else None
        visit_span = None
        if spans is not None:
            visit_span = spans.begin("visit", page.url, start)
            spans.current_visit = visit_span

        load = _PageLoad(self, pool, page, har)
        load.fetch((page.html,))
        self.loop.run_until(load.done.__len__)
        har.on_load_ms = self.loop.now - start
        if visit_span is not None:
            spans.end(visit_span, self.loop.now)
            spans.current_visit = None
        pool.close()
        status = "ok"
        if self.faults is not None:
            stats = pool.stats
            touched_by_faults = (
                stats.failed_requests
                or stats.retried_requests
                or stats.h3_fallbacks
                or stats.connect_timeouts
                or stats.connection_resets
                or any(entry.failed for entry in har.entries)
            )
            if touched_by_faults:
                status = "degraded"
        visit = PageVisit(
            page_url=page.url,
            protocol_mode=self.config.protocol_mode,
            har=har,
            plt_ms=har.on_load_ms,
            pool_stats=pool.stats,
            status=status,
        )
        if self.obs is not None:
            # Deterministic (the loop is): the events this visit drove.
            self.obs.counters.incr(
                "loop.events_processed",
                self.loop.processed_events - events_before,
            )
            (
                visit.counters,
                visit.trace,
                visit.metrics,
                visit.spans,
            ) = self.obs.drain_visit()
        if self.check:
            check_visit(self.check, visit, faults_active=self.faults is not None)
        return visit

    def clear_session_state(self) -> None:
        """Forget tickets, QUIC-broken hosts and DNS answers
        (a pristine profile)."""
        self.session_cache.clear()
        self.alt_svc.clear()
        if self.dns is not None:
            self.dns.clear()

    # ------------------------------------------------------------------

    def _route(self, host: str) -> tuple:
        """Remember ``host``'s server, path and lane (before any Alt-Svc
        demotion) in :attr:`routes`: the farm builds the server, then
        draws the path's seed, in the order it always has."""
        server = self.farm.server(host)
        route = self.routes[host] = (
            server, self.farm.path(host), self._pick_protocol(server, demote=False)
        )
        return route

    def _pick_protocol(self, server, demote: bool = True) -> HttpProtocol:
        """Choose the protocol lane for one request.

        In ``h3-enabled`` mode an H3-capable server is reached over H3
        directly (the paper's probes force QUIC), unless a QUIC failure
        demoted its host (``demote``).  Servers without H2 fall back to
        HTTP/1.1 — the paper's Table II "Others" row.
        """
        if (
            self.config.protocol_mode == H3_ENABLED
            and server.supports_h3
            and not (demote and self.alt_svc.h3_broken(server.hostname, self.loop.now))
        ):
            return _H3
        return ConnectionPool._tcp_protocol(server)
