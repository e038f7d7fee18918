"""Parallel campaign execution: sharding paired visits across processes.

The paper's protocol is embarrassingly parallel: every ``(vantage,
probe, page)`` paired visit is an isolated simulation with its own
:class:`~repro.events.loop.EventLoop` and RNG stream.  This module
exploits that:

* **Work units** are ``(campaign, vantage, probe, page-chunk)`` tuples.
  A worker process replays each page's paired visit (H2 then H3,
  ``visits_per_page`` times each, edge caches warmed per page) in a
  fresh single-page simulation.
* **Seeding** is derived per ``(campaign seed, vantage, probe, page)``
  with a stable hash — not Python's process-randomized ``hash()`` — so
  any worker count, chunking, or scheduling order reproduces the
  ``workers=1`` run bit-for-bit.
* **The process boundary** carries typed
  :class:`~repro.measurement.outcome.VisitOutcome` values rendered to
  compact dicts via their single ``to_dict``/``from_dict`` pair, never
  live simulation object graphs.

The streaming executor (:mod:`repro.measurement.executor`) owns the
pool and the ordering; this module holds what runs inside it.  It looks
:func:`measure_visit_outcome` up on this module at call time, so tests
and benchmarks can wrap it here.  ``workers <= 1`` calls the same
function in-process — no pool, no serialization round trip, identical
results.
"""

from __future__ import annotations

import hashlib
from typing import Hashable

from repro.browser.browser import H2_ONLY, H3_ENABLED
from repro.check.context import InvariantViolation
from repro.measurement.campaign import CampaignConfig, PairedVisit
from repro.measurement.outcome import VisitOutcome
from repro.measurement.probe import Probe
from repro.measurement.vantage import VantagePoint
from repro.web.page import Webpage
from repro.web.topsites import WebUniverse


def derive_seed(
    base_seed: int, vp_index: int, probe_index: int, page_index: int
) -> int:
    """Stable per-visit seed for ``(campaign, vantage, probe, page)``.

    Uses BLAKE2b (not ``hash()``, which is randomized per process) so
    every process — and every future session — derives the same stream.
    """
    key = f"{base_seed}:{vp_index}:{probe_index}:{page_index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def measure_paired_visit(
    universe: WebUniverse,
    vantage: VantagePoint,
    vp_index: int,
    probe_index: int,
    config: CampaignConfig,
    page: Webpage,
    page_index: int,
) -> PairedVisit:
    """Measure one page from one probe in a fresh, isolated simulation.

    This is *the* unit of campaign work — the serial fallback and the
    worker processes both call it, which is what makes parallel runs
    reproduce serial ones exactly: nothing (event-loop clock, RNG
    position, cache state) leaks between pages.  When the config asks
    for counters or traces, a per-visit-scoped ``ObsContext`` rides
    along; its payloads cross the process gap inside the visit dicts.
    """
    obs = None
    if (
        config.collect_counters
        or config.trace
        or config.spans
        or config.profile_loop
        or config.metrics_interval_ms is not None
    ):
        from repro.obs import ObsContext

        obs = ObsContext(
            trace=config.trace,
            profile_loop=config.profile_loop,
            # Counters keep their historical trigger (counters or trace);
            # metrics/spans/profile-only runs leave visit.counters None
            # so existing payload shapes are untouched.
            counters=config.collect_counters or config.trace,
            metrics_interval_ms=config.metrics_interval_ms,
            metrics_max_samples=config.metrics_max_samples,
            spans=config.spans,
        )
    check = None
    if config.strict:
        from repro.check import CheckContext

        check = CheckContext()
    probe = Probe(
        name=f"{vantage.name}-{probe_index}",
        universe=universe,
        net_profile=vantage.net_profile(
            loss_rate=config.loss_rate, rate_mbps=config.rate_mbps
        ),
        seed=derive_seed(config.seed, vp_index, probe_index, page_index),
        transport_config=config.transport_config,
        use_session_tickets=config.use_session_tickets,
        obs=obs,
        fault_profile=config.fault_profile,
        check=check,
        proxy=config.proxy,
        cache_hierarchy=config.cache_hierarchy,
        compression=config.compression,
    )
    if config.warm_popular:
        probe.warm_edges((page,))
    h2 = probe.measure_page(page, H2_ONLY, visits=config.visits_per_page)
    h3 = probe.measure_page(page, H3_ENABLED, visits=config.visits_per_page)
    loop_profile = probe.loop.profile_stats() if config.profile_loop else None
    return PairedVisit(
        page=page, probe_name=probe.name, h2=h2, h3=h3,
        loop_profile=loop_profile,
    )


def measure_visit_outcome(
    universe: WebUniverse,
    vantage: VantagePoint,
    vp_index: int,
    probe_index: int,
    config: CampaignConfig,
    page: Webpage,
    page_index: int,
) -> VisitOutcome:
    """Measure one paired visit and wrap it as a :class:`VisitOutcome`.

    Graceful degradation lives here: with a fault profile active, a
    visit that raises out of the simulator becomes a ``failed`` outcome
    (recorded campaign-side as a :class:`VisitFailure`) instead of
    poisoning the whole run.  Fault-free runs deliberately get *no*
    exception handling — a crash there is a bug and must stay loud.
    """
    if config.fault_profile is None:
        paired = measure_paired_visit(
            universe, vantage, vp_index, probe_index, config, page, page_index
        )
        return VisitOutcome.from_visits(
            page_index, paired.h2, paired.h3, profile=paired.loop_profile
        )
    try:
        paired = measure_paired_visit(
            universe, vantage, vp_index, probe_index, config, page, page_index
        )
    except InvariantViolation:
        # A failed invariant is a simulator bug, not a simulated fault:
        # it must stay loud even under graceful degradation.
        raise
    except Exception as exc:  # noqa: BLE001 — degrade, don't poison the run
        return VisitOutcome.from_error(
            page_index, f"{type(exc).__name__}: {exc}"
        )
    return VisitOutcome.from_visits(
        page_index, paired.h2, paired.h3, profile=paired.loop_profile
    )


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------

#: Per-worker context installed by the pool initializer.  Module-level so
#: it survives both ``fork`` (inherited) and ``spawn`` (re-initialized in
#: the fresh interpreter) start methods.
_WORKER_CTX: dict = {}

#: A work unit: ``(config key, vp_index, probe_index, page indices)``.
_WorkUnit = tuple[Hashable, int, int, tuple[int, ...]]


def _init_worker(
    universe: WebUniverse,
    vantage_points: tuple[VantagePoint, ...],
    configs: dict[Hashable, CampaignConfig],
    pages: tuple[Webpage, ...],
) -> None:
    _WORKER_CTX["universe"] = universe
    _WORKER_CTX["vantage_points"] = vantage_points
    _WORKER_CTX["configs"] = configs
    _WORKER_CTX["pages"] = pages


def _run_unit(unit: _WorkUnit) -> list[dict]:
    """Replay one work unit; outcomes cross the process gap as dicts."""
    key, vp_index, probe_index, page_indices = unit
    universe = _WORKER_CTX["universe"]
    vantage = _WORKER_CTX["vantage_points"][vp_index]
    config = _WORKER_CTX["configs"][key]
    pages = _WORKER_CTX["pages"]
    return [
        measure_visit_outcome(
            universe, vantage, vp_index, probe_index, config,
            pages[page_index], page_index,
        ).to_dict()
        for page_index in page_indices
    ]
