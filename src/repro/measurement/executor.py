"""The streaming campaign executor and the unified ``execute`` entry point.

This module is the one engine behind every way of running
measurements:

* ``execute(CampaignPlan)`` — one campaign, streaming.
* ``execute(MultiCampaignPlan)`` — several configs over one shared
  worker pool (the Fig. 9 loss sweep, the fallback sweep).
* ``execute(ConsecutivePlan)`` — ordered consecutive-visit walks
  (Fig. 8 / Table III), one per mode, replayed or simulated.

All three write a store through one :class:`_StoreBatcher`.

Streaming
=========

Campaigns *stream*; peak RSS does not grow with the visit count:

1. A generator enumerates ``(config, vantage, probe, page)`` slots in
   canonical order, assigning each a global sequence number.  Nothing
   is materialized; with a lazy universe the pages themselves are
   generated on demand.
2. Store lookups happen per slot as it is enumerated; hits become
   immediately-available outcomes (decoded from their stored records),
   misses accumulate into bounded work units that feed the pool — started
   at the first miss, so a fully warm replay forks no workers — through
   a **bounded in-flight window**
   (``max_in_flight`` units submitted-but-unconsumed; the enumerator
   blocks when the window is full — that is the backpressure).
3. Outcomes are folded into a :class:`~repro.measurement.summary.
   CampaignSummary` **in canonical slot order** (a small reorder
   buffer bridges completion order to slot order; float folds are
   order-sensitive, canonical order is what makes workers=1 == N).
4. Store write-through is batched (:class:`_StoreBatcher`), and a
   ``finally`` flush keeps every folded visit durable when an
   interruption propagates, so ``resume`` picks up from the journal.

With ``summary_only=True`` no ``PairedVisit`` is retained at all:
``CampaignResult.paired_visits`` stays empty and analyses consume
``CampaignResult.summary``.  Peak RSS is then bounded by the window,
not the page count — the ``bench_campaign.py --sections memory``
section measures exactly that.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import KW_ONLY, dataclass, field
from functools import singledispatch
from typing import Hashable

from repro.browser.browser import H2_ONLY, H3_ENABLED
from repro.measurement import parallel as parallel_mod
from repro.measurement.campaign import (
    CampaignConfig,
    CampaignResult,
    PairedVisit,
    PlanConfig,
)
from repro.measurement.consecutive import (
    ConsecutivePlan,
    ConsecutiveRun,
    _walk_key,
    run_walk,
)
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


@dataclass(frozen=True)
class _StreamPlan:
    """The run shape both streaming plans share.

    ``universe`` is the one positional field.  Pages default to the
    whole universe; ``page_count`` selects the first N pages without
    materializing them (the lazy-universe path).
    """

    universe: object
    _: KW_ONLY
    pages: tuple[Webpage, ...] | None = None
    page_count: int | None = None
    vantage_points: tuple[VantagePoint, ...] | None = None
    workers: int = 1
    chunk_size: int | None = None
    store: object | None = None
    resume: bool = False
    #: Keep only the folded :class:`CampaignSummary`; ``paired_visits``
    #: stays empty and peak RSS is bounded by the in-flight window.
    summary_only: bool = False
    #: Maximum work units submitted-but-unconsumed (default
    #: ``max(2, 2 * workers)``).
    max_in_flight: int | None = None

    def visit_count(self, config: CampaignConfig) -> int:
        """Paired visits (slots) one campaign of ``config`` runs here."""
        vps = (
            self.vantage_points
            if self.vantage_points is not None
            else default_vantage_points()
        )
        pages = PageSource(self.universe, pages=self.pages, count=self.page_count)
        return (
            len(vps[: config.max_vantage_points])
            * config.probes_per_vantage
            * len(pages)
        )


@dataclass(frozen=True)
class CampaignPlan(_StreamPlan, PlanConfig):
    """Everything needed to run one campaign, declaratively."""

    run_name: str | None = None


@dataclass(frozen=True)
class MultiCampaignPlan(_StreamPlan):
    """Several configs drained over one shared pool (sweeps)."""

    configs: dict[Hashable, CampaignConfig] = field(default_factory=dict)
    run_prefix: str | None = None


@singledispatch
def execute(plan):
    """Run a measurement plan; the single entry point for all runners."""
    raise TypeError(f"execute() does not understand plan type {type(plan)!r}")


@execute.register
def _execute_campaign(plan: CampaignPlan) -> CampaignResult:
    results = _stream_campaigns(
        plan, {"campaign": plan.config}, {"campaign": plan.run_name}
    )
    return results["campaign"]


@execute.register
def _execute_multi(plan: MultiCampaignPlan) -> dict:
    run_names = {}
    if plan.run_prefix is not None:
        run_names = {
            key: f"{plan.run_prefix}/{_format_run_key(key)}"
            for key in plan.configs
        }
    return _stream_campaigns(plan, plan.configs, run_names)


@execute.register
def _execute_consecutive(plan: ConsecutivePlan):
    """One walk per mode, replayed from the store or simulated."""
    for mode in plan.modes:
        if mode not in (H2_ONLY, H3_ENABLED):
            raise ValueError(f"unknown mode {mode!r}")
    store, run_name = plan.store, plan.run_name
    if store is None:
        runs = tuple(run_walk(plan, mode) for mode in plan.modes)
        return runs[0] if len(runs) == 1 else runs
    from repro.store.keys import campaign_config_hash

    config_hash = campaign_config_hash(plan.config)
    batcher = _StoreBatcher(store)
    if run_name is not None:
        batcher.open_run(run_name, config_hash, False, len(plan.modes))
    runs = []
    clean = False
    try:
        for position, mode in enumerate(plan.modes):
            walk_key = _walk_key(plan, mode)
            document = store.get(walk_key)
            if document is None:
                run = run_walk(plan, mode)
                batcher.add_fresh(
                    walk_key,
                    run.to_dict(),
                    kind="consecutive",
                    config_hash=config_hash,
                    page_url=plan.pages[0].url if plan.pages else None,
                    probe=f"consecutive-{mode}",
                    run_name=run_name,
                )
            else:
                run = ConsecutiveRun.from_dict(document)
                run.source = "replay"
            if run_name is not None:
                batcher.add_run_visit(run_name, position, walk_key)
            runs.append(run)
        clean = True
    finally:
        batcher.flush(close=clean)
    return runs[0] if len(runs) == 1 else tuple(runs)


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
    """Groups store writes into one transaction per
    :data:`DEFAULT_STORE_BATCH` visits.

    Entries, journal rows and ordered ``run_visits`` rows all commit
    together, so a flushed batch is durable as a unit; the executor's
    ``finally`` flush keeps interrupt semantics per-visit for the
    serial path (everything folded before the exception is flushed).
    A named run opens in the first batch that commits and closes in the
    final flush of a clean finish, so a warm replay that fits in one
    batch commits once, and a run interrupted before any visit folds
    writes nothing.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._entries: list[dict] = []
        self._journal: list[tuple[str, str, str]] = []
        self._run_visits: list[tuple[str, int, str]] = []
        self._open_runs: list[tuple[str, str, bool]] = []
        #: ``(run_name, n_visits)`` of every opened run.
        self._runs: list[tuple[str, int]] = []
        self._queued: set[str] = set()
        self._pending_visits = 0

    def open_run(self, name: str, config_hash: str, resume: bool, n_visits: int) -> None:
        self._open_runs.append((name, config_hash, resume))
        self._runs.append((name, n_visits))

    def add_fresh(
        self,
        visit_key: str,
        record: bytes | dict,
        *,
        kind: str,
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
                    "document": record,
                    "kind": kind,
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

    def visit_done(self, last: bool) -> None:
        """Count one folded visit; flush when the batch is full.

        The plan's last visit leaves its batch to the final flush, which
        closes the runs in the same transaction.
        """
        self._pending_visits += 1
        if self._pending_visits >= DEFAULT_STORE_BATCH and not last:
            self.flush()

    def flush(self, close: bool = False) -> None:
        """Commit what is queued and, with ``close``, mark every opened
        run complete in the same transaction; opening a run alone never
        commits."""
        close_runs = self._runs if close else []
        if not (
            self._entries or self._journal or self._run_visits or close_runs
        ):
            self._pending_visits = 0
            return
        self.store.put_batch(
            self._entries,
            journal=self._journal,
            run_visits=self._run_visits,
            open_runs=self._open_runs,
            close_runs=close_runs,
        )
        self._entries = []
        self._journal = []
        self._run_visits = []
        self._open_runs = []
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


def _default_chunk_size(n_pages: int, workers: int) -> int:
    """A few chunks per worker balances load against pool overhead."""
    if workers <= 1:
        return max(1, n_pages)
    return max(1, -(-n_pages // (workers * 4)))


class _KeyState:
    """Per-config accumulation state during one streaming run."""

    __slots__ = (
        "config", "vps", "summary", "paired", "failures", "stats",
        "run_name", "config_hash", "config_fragment", "profile_merge",
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
        self.config_fragment = None
        self.profile_merge: dict[str, list] = {}
        self.prior: set[str] = set()
        self.position = 0
        self.n_slots = 0


def _stream_campaigns(
    plan: _StreamPlan,
    configs: dict[Hashable, CampaignConfig],
    run_names: dict[Hashable, str | None],
) -> dict[Hashable, CampaignResult]:
    """The engine: enumerate → (replay | simulate) → fold, streaming.

    ``run_names`` maps a config key to its named run in the store; a
    key it lacks runs unnamed.
    """
    universe, workers, store = plan.universe, plan.workers, plan.store
    source = PageSource(universe, pages=plan.pages, count=plan.page_count)
    n_pages = len(source)
    all_vps = tuple(
        plan.vantage_points
        if plan.vantage_points is not None
        else default_vantage_points()
    )

    batcher = _StoreBatcher(store) if store is not None else None

    # -- per-config setup ---------------------------------------------
    states: dict[Hashable, _KeyState] = {}
    for key, config in configs.items():
        state = states[key] = _KeyState(
            config, all_vps[: config.max_vantage_points]
        )
        state.n_slots = plan.visit_count(config)
        if store is not None:
            from repro.store.keys import (
                ConfigFragment,
                campaign_config_hash,
                visit_config_part,
            )

            state.stats = StoreStats()
            config_part = visit_config_part(config)
            state.config_fragment = ConfigFragment.of(config_part)
            state.config_hash = campaign_config_hash(config, config_part)
            state.run_name = run_names.get(key)
            if state.run_name is not None:
                if plan.resume:
                    state.prior = set(store.journal_keys(state.run_name))
                batcher.open_run(
                    state.run_name, state.config_hash, plan.resume, state.n_slots
                )

    if store is not None:
        from repro.store.keys import page_part, paired_visit_key

        # Page key material is config-independent; cache it with a
        # bounded LRU so the streaming path stays O(window), not O(pages).
        from collections import OrderedDict

        page_materials: OrderedDict[int, str] = OrderedDict()
        material_cap = max(256, 4 * MAX_AUTO_CHUNK)

        def material_for(page_index: int) -> str:
            material = page_materials.get(page_index)
            if material is None:
                material = page_part(source[page_index], universe.hosts)
                page_materials[page_index] = material
                if len(page_materials) > material_cap:
                    page_materials.popitem(last=False)
            else:
                page_materials.move_to_end(page_index)
            return material

    total_slots = sum(state.n_slots for state in states.values())

    # -- progress ------------------------------------------------------
    progress = None
    if any(config.progress for config in configs.values()):
        from repro.obs.progress import ProgressReporter

        progress = ProgressReporter(
            total=total_slots,
            workers=max(1, workers),
        )

    # -- chunking and windowing ----------------------------------------
    if plan.chunk_size is not None:
        per_chunk = plan.chunk_size
    else:
        per_chunk = min(
            _default_chunk_size(n_pages, workers), MAX_AUTO_CHUNK
        )
    per_chunk = max(1, per_chunk)
    pooled = workers > 1
    max_units = (
        plan.max_in_flight
        if plan.max_in_flight is not None
        else max(2, 2 * workers)
    )
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

    #: seq -> (slot, outcome, record); the reorder buffer bridging
    #: completion order back to canonical fold order.  ``record`` is a
    #: pooled visit's encoding as the worker sent it, else ``None``.
    ready: dict[int, tuple[tuple, VisitOutcome, bytes | None]] = {}
    fold_frontier = 0
    in_flight: deque = deque()  # (seqs, page_indices, slot_group, async_result)

    def _fold_one(slot, outcome: VisitOutcome, record: bytes | None) -> None:
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
        elif not plan.summary_only:
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
                wrote = batcher.add_fresh(
                    visit_key,
                    record if record is not None else outcome.to_record(),
                    kind="paired",
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
            batcher.visit_done(last=fold_frontier + 1 == total_slots)

    def _fold_ready() -> None:
        nonlocal fold_frontier
        while fold_frontier in ready:
            _fold_one(*ready.pop(fold_frontier))
            fold_frontier += 1

    #: store key per pending slot (popped at fold time; bounded by the
    #: window plus the reorder backlog).
    _slot_keys: dict[tuple, str] = {}

    def _drain_one() -> None:
        """Block on the oldest in-flight unit and stage its outcomes."""
        seqs, page_indices, (key, vp_index, probe_index), async_result = (
            in_flight.popleft()
        )
        results = async_result.get()
        for seq, page_index, (record, profile) in zip(seqs, page_indices, results):
            outcome = VisitOutcome.from_record(record)
            outcome.profile = profile
            ready[seq] = ((key, vp_index, probe_index, page_index), outcome, record)
        exec_stats["max_ready_backlog"] = max(
            exec_stats["max_ready_backlog"], len(ready)
        )

    pool = None
    interrupted = False
    try:
        open_group: tuple | None = None  # (key, vp_index, probe_index)
        open_indices: list[int] = []
        open_seqs: list[int] = []

        def _flush_unit() -> None:
            """Submit the accumulating (possibly partial) unit to the pool."""
            nonlocal open_indices, open_seqs, pool
            if not open_indices:
                return
            if pool is None:
                # Started at the first miss, so a fully warm replay
                # forks no workers.
                pool = multiprocessing.get_context().Pool(
                    processes=workers,
                    initializer=parallel_mod._init_worker,
                    initargs=(universe, all_vps, configs, source),
                )
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
                        _flush_unit()
                        open_group = group
                    for page_index in range(n_pages):
                        slot = (key, vp_index, probe_index, page_index)
                        staged = False
                        if store is not None:
                            visit_key = paired_visit_key(
                                state.config_fragment,
                                material_for(page_index),
                                all_vps[vp_index],
                                probe_index,
                                parallel_mod.derive_seed(
                                    config.seed, vp_index, probe_index, page_index
                                ),
                            )
                            _slot_keys[slot] = visit_key
                            payload = store.get(visit_key)
                            if payload is not None:
                                outcome = VisitOutcome.from_payload(payload)
                                outcome.source = "replay"
                                ready[seq] = (slot, outcome, None)
                                state.stats.hits += 1
                                if visit_key in state.prior:
                                    state.stats.resumed += 1
                                    store.stats.resumed += 1
                                staged = True
                            else:
                                state.stats.misses += 1
                        if not staged:
                            if not pooled:
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
                                ready[seq] = (slot, outcome, None)
                            else:
                                open_indices.append(page_index)
                                open_seqs.append(seq)
                                if len(open_indices) >= per_chunk:
                                    _flush_unit()
                        seq += 1
                        if pooled:
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
        _flush_unit()
        while in_flight:
            _drain_one()
            _fold_ready()
        _fold_ready()
    except BaseException:
        interrupted = True
        raise
    finally:
        if pool is not None:
            if interrupted:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        # Everything folded so far commits, so a --resume run recovers
        # it; only a clean finish closes the named runs.
        if batcher is not None:
            batcher.flush(close=not interrupted)

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
