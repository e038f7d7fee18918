"""The streaming campaign executor and the unified ``execute`` entry point.

This module is the one engine behind every way of running
measurements:

* ``execute(CampaignPlan)`` — one campaign, streaming.
* ``execute(MultiCampaignPlan)`` — several configs over one shared
  worker pool (the Fig. 9 loss sweep, the fallback sweep).
* ``execute(ConsecutivePlan)`` — ordered consecutive-visit walks
  (Fig. 8 / Table III).

Streaming
=========

The old runner materialized every slot, every work unit and every
``PairedVisit`` before merging — peak RSS was O(visits).  The executor
instead *streams*:

1. A generator enumerates ``(config, vantage, probe, page)`` slots in
   canonical order, assigning each a global sequence number.  Nothing
   is materialized; with a lazy universe the pages themselves are
   generated on demand.
2. Store lookups happen per slot as it is enumerated; hits become
   immediately-available outcomes, misses accumulate into bounded work
   units that feed the pool through a **bounded in-flight window**
   (``max_in_flight`` units submitted-but-unconsumed; the enumerator
   blocks when the window is full — that is the backpressure).
3. Outcomes are folded into a :class:`~repro.measurement.summary.
   CampaignSummary` **in canonical slot order** (a small reorder
   buffer bridges completion order to slot order; float folds are
   order-sensitive, canonical order is what makes workers=1 == N).
4. Store write-through is batched: entries, journal rows and the
   ordered ``run_visits`` list commit one batch at a time
   (:meth:`~repro.store.store.ResultStore.put_batch`), and a
   ``finally`` flush preserves per-visit durability when an
   interruption propagates — mid-stream resume picks up from the
   journal exactly as before.

With ``summary_only=True`` no ``PairedVisit`` is retained at all:
``CampaignResult.paired_visits`` stays empty and analyses consume
``CampaignResult.summary``.  Peak RSS is then bounded by the window,
not the page count — the ``bench_campaign.py --sections memory``
section measures exactly that.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from functools import singledispatch
from typing import Hashable

from repro.measurement import parallel as parallel_mod
from repro.measurement.campaign import (
    CampaignConfig,
    CampaignResult,
    PairedVisit,
    SimConfig,
    TelemetryConfig,
)
from repro.measurement.consecutive import ConsecutivePlan, ConsecutiveRun, run_walk
from repro.measurement.outcome import VisitFailure, VisitOutcome
from repro.measurement.summary import CampaignSummary
from repro.measurement.vantage import VantagePoint, default_vantage_points
from repro.store.stats import StoreStats
from repro.web.page import Webpage

#: Cap on automatically chosen work-unit size.  The base default
#: (:func:`_default_chunk_size`) is unbounded in the page count, which
#: would let a 100k-page campaign put thousands of visits in flight;
#: explicit ``chunk_size`` values are honored as-is.
MAX_AUTO_CHUNK = 64

#: Default store write-through batch (visits per commit).
DEFAULT_STORE_BATCH = 16


def _as_campaign_config(
    sim: "SimConfig | CampaignConfig",
    telemetry: TelemetryConfig | None,
) -> CampaignConfig:
    if isinstance(sim, CampaignConfig):
        if telemetry is not None:
            return CampaignConfig.from_groups(sim.sim, telemetry)
        return sim
    return CampaignConfig.from_groups(sim, telemetry)


@dataclass(frozen=True)
class CampaignPlan:
    """Everything needed to run one campaign, declaratively.

    ``sim`` may be a composed :class:`SimConfig` (paired with
    ``telemetry``) or a flat :class:`CampaignConfig`.  Pages
    default to the whole universe; ``page_count`` selects the first N
    pages without materializing them (the lazy-universe path).
    """

    universe: object
    sim: "SimConfig | CampaignConfig" = field(default_factory=SimConfig)
    telemetry: TelemetryConfig | None = None
    pages: tuple[Webpage, ...] | None = None
    page_count: int | None = None
    vantage_points: tuple[VantagePoint, ...] | None = None
    workers: int = 1
    chunk_size: int | None = None
    start_method: str | None = None
    store: object | None = None
    run_name: str | None = None
    resume: bool = False
    #: Keep only the folded :class:`CampaignSummary`; ``paired_visits``
    #: stays empty and peak RSS is bounded by the in-flight window.
    summary_only: bool = False
    #: Maximum work units submitted-but-unconsumed (default
    #: ``max(2, 2 * workers)``).
    max_in_flight: int | None = None
    #: Visits per store write-through commit.
    store_batch: int = DEFAULT_STORE_BATCH

    @property
    def config(self) -> CampaignConfig:
        return _as_campaign_config(self.sim, self.telemetry)


@dataclass(frozen=True)
class MultiCampaignPlan:
    """Several configs drained over one shared pool (sweeps)."""

    universe: object
    configs: dict[Hashable, CampaignConfig] = field(default_factory=dict)
    pages: tuple[Webpage, ...] | None = None
    page_count: int | None = None
    vantage_points: tuple[VantagePoint, ...] | None = None
    workers: int = 1
    chunk_size: int | None = None
    start_method: str | None = None
    store: object | None = None
    run_prefix: str | None = None
    resume: bool = False
    summary_only: bool = False
    max_in_flight: int | None = None
    store_batch: int = DEFAULT_STORE_BATCH


@singledispatch
def execute(plan):
    """Run a measurement plan; the single entry point for all runners."""
    raise TypeError(f"execute() does not understand plan type {type(plan)!r}")


@execute.register
def _execute_campaign(plan: CampaignPlan) -> CampaignResult:
    results = _stream_campaigns(
        plan.universe,
        {"campaign": plan.config},
        pages=plan.pages,
        page_count=plan.page_count,
        vantage_points=plan.vantage_points,
        workers=plan.workers,
        chunk_size=plan.chunk_size,
        start_method=plan.start_method,
        store=plan.store,
        run_prefix=plan.run_name,
        resume=plan.resume,
        summary_only=plan.summary_only,
        max_in_flight=plan.max_in_flight,
        store_batch=plan.store_batch,
    )
    return results["campaign"]


@execute.register
def _execute_multi(plan: MultiCampaignPlan) -> dict:
    return _stream_campaigns(
        plan.universe,
        plan.configs,
        pages=plan.pages,
        page_count=plan.page_count,
        vantage_points=plan.vantage_points,
        workers=plan.workers,
        chunk_size=plan.chunk_size,
        start_method=plan.start_method,
        store=plan.store,
        run_prefix=plan.run_prefix,
        resume=plan.resume,
        summary_only=plan.summary_only,
        max_in_flight=plan.max_in_flight,
        store_batch=plan.store_batch,
    )


@execute.register
def _execute_consecutive(plan: ConsecutivePlan):
    runs = tuple(run_walk(plan, mode) for mode in plan.modes)
    return runs[0] if len(runs) == 1 else runs


# ----------------------------------------------------------------------
# Page sources
# ----------------------------------------------------------------------


class PageSource:
    """Resolves page indices to pages, materialized or lazily.

    Picklable; installed into workers in place of the old page tuple
    (``_run_unit`` only ever does ``pages[index]``).  With an explicit
    page tuple this is exactly the legacy behavior; with ``pages=None``
    indices resolve through ``universe.page_at`` so a lazy universe
    never materializes its page list on either side of the process
    boundary.
    """

    def __init__(self, universe, pages=None, count=None):
        self._universe = universe
        self._pages = tuple(pages) if pages is not None else None
        if self._pages is not None:
            self._count = len(self._pages)
        elif count is not None:
            self._count = int(count)
        else:
            self._count = universe.page_count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> Webpage:
        if self._pages is not None:
            return self._pages[index]
        return self._universe.page_at(index)


# ----------------------------------------------------------------------
# Store write-through batching
# ----------------------------------------------------------------------


class _StoreBatcher:
    """Groups store writes into one transaction per ``batch`` visits.

    Entries, journal rows and ordered ``run_visits`` rows all commit
    together, so a flushed batch is durable as a unit; the executor's
    ``finally`` flush keeps interrupt semantics per-visit for the
    serial path (everything folded before the exception is flushed).
    """

    def __init__(self, store, batch: int) -> None:
        self.store = store
        self.batch = max(1, batch)
        self._entries: list[dict] = []
        self._journal: list[tuple[str, str, str]] = []
        self._run_visits: list[tuple[str, int, str]] = []
        self._queued: set[str] = set()
        self._pending_visits = 0

    def add_fresh(
        self,
        visit_key: str,
        document: dict,
        *,
        config_hash: str,
        page_url: str | None,
        probe: str | None,
        run_name: str | None,
    ) -> bool:
        """Queue one fresh outcome; returns True if it will write."""
        will_write = (
            visit_key not in self._queued
            and not self.store.contains(visit_key)
        )
        if will_write:
            self._queued.add(visit_key)
            self._entries.append(
                {
                    "key": visit_key,
                    "document": document,
                    "kind": "paired",
                    "config_hash": config_hash,
                    "page_url": page_url,
                    "probe": probe,
                }
            )
        if run_name is not None:
            self._journal.append((run_name, visit_key, "fresh"))
        return will_write

    def add_run_visit(self, run_name: str, position: int, visit_key: str) -> None:
        self._run_visits.append((run_name, position, visit_key))

    def visit_done(self) -> None:
        """Count one folded visit; flush when the batch is full."""
        self._pending_visits += 1
        if self._pending_visits >= self.batch:
            self.flush()

    def flush(self) -> None:
        if not (self._entries or self._journal or self._run_visits):
            self._pending_visits = 0
            return
        self.store.put_batch(
            self._entries, journal=self._journal, run_visits=self._run_visits
        )
        self._entries = []
        self._journal = []
        self._run_visits = []
        self._queued = set()
        self._pending_visits = 0


# ----------------------------------------------------------------------
# The streaming engine
# ----------------------------------------------------------------------


def _format_run_key(key: Hashable) -> str:
    """A stable, readable run-name suffix for one config key."""
    if isinstance(key, tuple):
        return "-".join(str(part) for part in key)
    return str(key)


def _run_name_for(run_prefix: str | None, key: Hashable, multi: bool) -> str | None:
    if run_prefix is None:
        return None
    return f"{run_prefix}/{_format_run_key(key)}" if multi else run_prefix


def _default_chunk_size(n_pages: int, workers: int) -> int:
    """A few chunks per worker balances load against pool overhead."""
    if workers <= 1:
        return max(1, n_pages)
    return max(1, -(-n_pages // (workers * 4)))


class _KeyState:
    """Per-config accumulation state during one streaming run."""

    __slots__ = (
        "config", "vps", "summary", "paired", "failures", "stats",
        "run_name", "config_hash", "config_part", "profile_merge",
        "prior", "position", "n_slots",
    )

    def __init__(self, config: CampaignConfig, vps) -> None:
        self.config = config
        self.vps = vps
        self.summary = CampaignSummary()
        self.paired: list[PairedVisit] = []
        self.failures: list[VisitFailure] = []
        self.stats: StoreStats | None = None
        self.run_name: str | None = None
        self.config_hash: str = ""
        self.config_part: dict | None = None
        self.profile_merge: dict[str, list] = {}
        self.prior: set[str] = set()
        self.position = 0
        self.n_slots = 0


def _stream_campaigns(
    universe,
    configs: dict[Hashable, CampaignConfig],
    *,
    pages=None,
    page_count=None,
    vantage_points=None,
    workers: int = 1,
    chunk_size: int | None = None,
    start_method: str | None = None,
    store=None,
    run_prefix: str | None = None,
    resume: bool = False,
    summary_only: bool = False,
    max_in_flight: int | None = None,
    store_batch: int = DEFAULT_STORE_BATCH,
) -> dict[Hashable, CampaignResult]:
    """The engine: enumerate → (replay | simulate) → fold, streaming."""
    source = PageSource(universe, pages=pages, count=page_count)
    n_pages = len(source)
    all_vps = tuple(
        vantage_points if vantage_points is not None else default_vantage_points()
    )

    # -- per-config setup ---------------------------------------------
    states: dict[Hashable, _KeyState] = {}
    for key, config in configs.items():
        vps = all_vps
        if config.max_vantage_points is not None:
            vps = vps[: config.max_vantage_points]
        state = states[key] = _KeyState(config, vps)
        state.n_slots = len(vps) * config.probes_per_vantage * n_pages
        if store is not None:
            from repro.store.keys import campaign_config_hash, visit_config_part

            state.stats = StoreStats()
            state.config_part = visit_config_part(config)
            state.config_hash = campaign_config_hash(config)
            state.run_name = _run_name_for(
                run_prefix, key, multi=len(configs) > 1
            )
            if state.run_name is not None:
                state.prior = store.begin_run(
                    state.run_name, config_hash=state.config_hash, resume=resume
                )

    if store is not None:
        from repro.store.keys import page_part, paired_visit_key

        # Page key material is config-independent; cache it with a
        # bounded LRU so the streaming path stays O(window), not O(pages).
        from collections import OrderedDict

        page_materials: OrderedDict[int, dict] = OrderedDict()
        material_cap = max(256, 4 * MAX_AUTO_CHUNK)

        def material_for(page_index: int) -> dict:
            material = page_materials.get(page_index)
            if material is None:
                material = page_part(source[page_index], universe.hosts)
                page_materials[page_index] = material
                if len(page_materials) > material_cap:
                    page_materials.popitem(last=False)
            else:
                page_materials.move_to_end(page_index)
            return material

    batcher = _StoreBatcher(store, store_batch) if store is not None else None

    # -- progress ------------------------------------------------------
    progress = None
    if any(config.progress for config in configs.values()):
        from repro.obs.progress import ProgressReporter

        progress = ProgressReporter(
            total=sum(state.n_slots for state in states.values()),
            workers=max(1, workers),
        )

    # -- chunking and windowing ----------------------------------------
    if chunk_size is not None:
        per_chunk = chunk_size
    else:
        per_chunk = min(
            _default_chunk_size(n_pages, workers), MAX_AUTO_CHUNK
        )
    per_chunk = max(1, per_chunk)
    pooled = workers > 1
    max_units = max_in_flight if max_in_flight is not None else max(2, 2 * workers)
    ready_cap = max(256, 2 * max_units * per_chunk)

    exec_stats = {
        "mode": "pool" if pooled else "serial",
        "workers": workers,
        "chunk_size": per_chunk,
        "max_in_flight": max_units,
        "max_in_flight_seen": 0,
        "max_ready_backlog": 0,
        "units_submitted": 0,
        "fresh_visits": 0,
        "replayed_visits": 0,
    }

    #: seq -> (slot, outcome); the reorder buffer bridging completion
    #: order back to canonical fold order.
    ready: dict[int, tuple[tuple, VisitOutcome]] = {}
    fold_frontier = 0
    in_flight: deque = deque()  # (seqs, page_indices, slot_group, async_result)

    def _fold_one(slot, outcome: VisitOutcome) -> None:
        key, vp_index, probe_index, page_index = slot
        state = states[key]
        probe_name = f"{state.vps[vp_index].name}-{probe_index}"
        state.summary.add_outcome(outcome, probe_name, universe)
        if outcome.source == "replay":
            exec_stats["replayed_visits"] += 1
            if progress is not None:
                progress.add_replayed(1)
        else:
            exec_stats["fresh_visits"] += 1
            if progress is not None:
                progress.add_outcome(outcome)
        if outcome.status == "failed":
            state.failures.append(
                VisitFailure(
                    page_url=source[outcome.page_index].url,
                    probe_name=probe_name,
                    error=outcome.error or "unknown",
                )
            )
        elif not summary_only:
            state.paired.append(
                PairedVisit(
                    page=source[outcome.page_index],
                    probe_name=probe_name,
                    h2=outcome.h2,
                    h3=outcome.h3,
                    loop_profile=outcome.profile,
                )
            )
        if state.config.profile_loop and outcome.profile:
            for name, entry in outcome.profile.items():
                merged = state.profile_merge.get(name)
                if merged is None:
                    state.profile_merge[name] = [
                        entry["count"], entry["total_ms"]
                    ]
                else:
                    merged[0] += entry["count"]
                    merged[1] += entry["total_ms"]
        if batcher is not None:
            visit_key = _slot_keys.pop(slot)
            if outcome.source == "fresh":
                document = outcome.to_dict()
                # The loop profile is wall-clock noise: strip it so
                # stored documents stay host-independent.
                document.pop("profile", None)
                wrote = batcher.add_fresh(
                    visit_key,
                    document,
                    config_hash=state.config_hash,
                    page_url=source[page_index].url,
                    probe=probe_name,
                    run_name=state.run_name,
                )
                if wrote:
                    state.stats.writes += 1
            if state.run_name is not None:
                batcher.add_run_visit(state.run_name, state.position, visit_key)
            state.position += 1
            batcher.visit_done()

    def _fold_ready() -> None:
        nonlocal fold_frontier
        while fold_frontier in ready:
            slot, outcome = ready.pop(fold_frontier)
            _fold_one(slot, outcome)
            fold_frontier += 1

    #: store key per pending slot (popped at fold time; bounded by the
    #: window plus the reorder backlog).
    _slot_keys: dict[tuple, str] = {}

    def _drain_one() -> None:
        """Block on the oldest in-flight unit and stage its outcomes."""
        seqs, page_indices, (key, vp_index, probe_index), async_result = (
            in_flight.popleft()
        )
        documents = async_result.get()
        for seq, page_index, document in zip(seqs, page_indices, documents):
            outcome = VisitOutcome.from_dict(document)
            ready[seq] = ((key, vp_index, probe_index, page_index), outcome)
        exec_stats["max_ready_backlog"] = max(
            exec_stats["max_ready_backlog"], len(ready)
        )

    pool = None
    interrupted = False
    try:
        if pooled:
            ctx = multiprocessing.get_context(start_method)
            pool = ctx.Pool(
                processes=workers,
                initializer=parallel_mod._init_worker,
                initargs=(universe, all_vps, configs, source),
            )

        open_group: tuple | None = None  # (key, vp_index, probe_index)
        open_indices: list[int] = []
        open_seqs: list[int] = []

        def _flush_unit() -> None:
            """Submit the accumulating (possibly partial) unit to the pool."""
            nonlocal open_indices, open_seqs
            if not open_indices:
                return
            key, vp_index, probe_index = open_group
            exec_stats["units_submitted"] += 1
            unit = (key, vp_index, probe_index, tuple(open_indices))
            in_flight.append(
                (
                    tuple(open_seqs),
                    tuple(open_indices),
                    open_group,
                    pool.apply_async(parallel_mod._run_unit, (unit,)),
                )
            )
            exec_stats["max_in_flight_seen"] = max(
                exec_stats["max_in_flight_seen"], len(in_flight)
            )
            open_indices = []
            open_seqs = []

        seq = 0
        for key, state in states.items():
            config = state.config
            for vp_index in range(len(state.vps)):
                for probe_index in range(config.probes_per_vantage):
                    group = (key, vp_index, probe_index)
                    if open_group != group:
                        if pool is not None:
                            _flush_unit()
                        open_group = group
                    for page_index in range(n_pages):
                        slot = (key, vp_index, probe_index, page_index)
                        staged = False
                        if store is not None:
                            visit_key = paired_visit_key(
                                state.config_part,
                                material_for(page_index),
                                all_vps[vp_index],
                                probe_index,
                                parallel_mod.derive_seed(
                                    config.seed, vp_index, probe_index, page_index
                                ),
                            )
                            _slot_keys[slot] = visit_key
                            document = store.get(visit_key)
                            if document is not None:
                                outcome = VisitOutcome.from_dict(document)
                                outcome.source = "replay"
                                ready[seq] = (slot, outcome)
                                state.stats.hits += 1
                                if visit_key in state.prior:
                                    state.stats.resumed += 1
                                    store.stats.resumed += 1
                                staged = True
                            else:
                                state.stats.misses += 1
                        if not staged:
                            if pool is None:
                                # Serial: simulate right here, one visit
                                # at a time — folding (and the store
                                # write-through) keeps the legacy
                                # per-visit journal granularity.
                                exec_stats["units_submitted"] += 1
                                outcome = parallel_mod.measure_visit_outcome(
                                    universe,
                                    all_vps[vp_index],
                                    vp_index,
                                    probe_index,
                                    config,
                                    source[page_index],
                                    page_index,
                                )
                                ready[seq] = (slot, outcome)
                            else:
                                open_indices.append(page_index)
                                open_seqs.append(seq)
                                if len(open_indices) >= per_chunk:
                                    _flush_unit()
                        seq += 1
                        if pool is not None:
                            # Backpressure: bound the submitted window
                            # and the reorder backlog.  A backlog at cap
                            # means the fold frontier is stuck behind
                            # the open (partial) unit — flush it so the
                            # frontier can advance, then drain.
                            if len(ready) >= ready_cap:
                                _flush_unit()
                            while len(in_flight) >= max_units or (
                                in_flight and len(ready) >= ready_cap
                            ):
                                _drain_one()
                        exec_stats["max_ready_backlog"] = max(
                            exec_stats["max_ready_backlog"], len(ready)
                        )
                        _fold_ready()
        if pool is not None:
            _flush_unit()
        while in_flight:
            _drain_one()
            _fold_ready()
        _fold_ready()
    except (KeyboardInterrupt, Exception):
        interrupted = True
        raise
    finally:
        if pool is not None:
            if interrupted:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        # Durability on interrupt: everything folded so far commits, so
        # the journal reflects every completed visit (per-visit in the
        # serial path) and a --resume run recovers it.
        if batcher is not None:
            batcher.flush()

    progress_summary = progress.finish() if progress is not None else None

    # -- result assembly ----------------------------------------------
    results: dict[Hashable, CampaignResult] = {}
    for key, state in states.items():
        result = CampaignResult(
            universe,
            state.config,
            state.paired,
            failures=state.failures,
            summary=state.summary,
            exec_stats=dict(exec_stats),
        )
        if state.config.profile_loop:
            result.loop_profile = {
                name: {"count": count, "total_ms": total_ms}
                for name, (count, total_ms) in sorted(
                    state.profile_merge.items(), key=lambda item: -item[1][1]
                )
            }
        if state.config.progress:
            result.progress = progress_summary
        if store is not None:
            result.store_stats = state.stats
            if state.run_name is not None:
                store.mark_run_complete(state.run_name, state.n_slots)
        results[key] = result
    return results


__all__ = [
    "CampaignPlan",
    "ConsecutivePlan",
    "ConsecutiveRun",
    "MultiCampaignPlan",
    "PageSource",
    "execute",
]
