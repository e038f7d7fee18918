"""The repo benchmark's four campaign workloads, their passes and digests.

Every workload is a closed-loop batch campaign over one fixed reference
top list (``GeneratorConfig(n_sites=128)``, universe seed 11): the next
visit slot starts when the previous one finishes.  The benchmark seed is
the *campaign* seed, from which every probe's RNG stream (DNS recursion,
think times, loss draws, fault timing) derives.  The universe stays
fixed because a different top list is a different page mix: across
universe seeds the same 64-page campaign costs up to 30% more or less
CPU, which would swamp every regression bound, while across campaign
seeds the paper-default campaign dispatches the same events to within
0.001%.

A *pass* is one cold execution of the workload's campaign plan followed
by ``REPLAY_PASSES`` warm replays from a result store.  A sample of the
host-speed reference (``reference.py``) follows every visit and
brackets every replay of a timed pass, outside the time measured.  Only the public
surfaces the project keeps are used: ``repro.scenario`` presets,
``execute(CampaignPlan(...))``, ``cached_universe`` and ``ResultStore``.
Per-visit latency is taken by wrapping
``repro.measurement.parallel.measure_visit_outcome``, which costs two
clock reads per visit; in pool workers the wrapper spools its samples
to files, because the workers are forked from this process.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass, field

from reference import reference_seconds, slowdown
from repro.measurement import CampaignPlan, TelemetryConfig, execute
from repro.measurement import parallel as parallel_mod
from repro.scenario import Scenario, preset
from repro.store import ResultStore
from repro.transport import TransportConfig
from repro.web.topsites import GeneratorConfig, cached_universe

UNIVERSE_CONFIG = GeneratorConfig(n_sites=128)
UNIVERSE_SEED = 11

#: Pages in the warm-up campaign that precedes the timed passes.
WARMUP_PAGES = 4
#: Warm replays at the end of every pass.
REPLAY_PASSES = 20


@dataclass(frozen=True)
class Workload:
    """One campaign the benchmark runs (README.md says why each is in the set)."""

    name: str
    scenario: Scenario
    #: Pages per pass (the first N pages of the reference top list).
    pages: int
    #: Run the plan on a worker pool with a fresh write-through store,
    #: and replay that store.  Other workloads run serially without a
    #: store and replay the store their warm-up campaign wrote.
    pooled: bool = False


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's reference campaign on the packet path, where
        # transport, netsim and the event kernel do most of the work.
        Workload("paper-packet", preset("paper-default"), pages=16),
        # Edge-regional tiers and compression on the analytic fast path:
        # per-packet events vanish, per-request layers dominate.
        Workload(
            "cdn-fastpath",
            preset("cdn-hierarchy").with_transport(TransportConfig(fast_path=True)),
            pages=32,
        ),
        # 1% loss, a MASQUE relay and NAT rebinds: loss recovery, PTO,
        # migration and the per-packet fault filter.
        Workload(
            "lossy-migration",
            preset("lossy").with_proxy("masque-relay").with_faults("nat-rebind"),
            pages=16,
        ),
        # The paper-packet plan on a worker pool with a write-through
        # store, then warm replays: executor, IPC and store at work.
        Workload("store-pool", preset("paper-default"), pages=16, pooled=True),
    )
}


def pool_workers() -> int:
    """Workers for the pooled workload: two, or fewer on a smaller host."""
    return min(2, len(os.sched_getaffinity(0)))


def digest(result) -> str:
    """BLAKE2b over every paired visit's identity, PLTs and statuses.

    ``repr`` keeps every float digit, so any change to a simulated
    timing changes the digest; failures are folded in after the visits.
    """
    h = hashlib.blake2b(digest_size=16)
    for pv in result.paired_visits:
        h.update(
            f"{pv.probe_name}|{pv.page.url}|{pv.h2.plt_ms!r}|{pv.h3.plt_ms!r}"
            f"|{pv.h2.status}/{pv.h3.status}\n".encode()
        )
    for failure in result.failures:
        h.update(
            f"failed|{failure.probe_name}|{failure.page_url}"
            f"|{failure.error}\n".encode()
        )
    return h.hexdigest()


def cpu_seconds() -> float:
    """CPU of this process plus every reaped child (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: One visit's sample: its wall ms, then the CPU and wall seconds of
#: the reference sample that followed it (0.0 when not sampling).
Sample = tuple[float, float, float]


class VisitClock:
    """Times every paired visit by wrapping ``measure_visit_outcome``.

    While :attr:`sampling` is on, each visit is followed by a reference
    sample, outside the visit's own timing.  The executor looks the
    function up on the module at call time, and pool workers forked
    after :meth:`install` inherit the wrapper.  A worker cannot hand its
    samples back through the executor, so it appends them to
    ``<spool>/visits.<pid>``; :meth:`take` folds the spool files in once
    the pool has been joined.
    """

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.sampling = False
        self._samples: list[Sample] = []
        self._inner = parallel_mod.measure_visit_outcome
        self._pid = os.getpid()

    def install(self) -> None:
        parallel_mod.measure_visit_outcome = self._measure

    def uninstall(self) -> None:
        parallel_mod.measure_visit_outcome = self._inner

    def _measure(self, *args, **kwargs):
        start = time.perf_counter()
        outcome = self._inner(*args, **kwargs)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        sample = (elapsed_ms, *(reference_seconds() if self.sampling else (0.0, 0.0)))
        if os.getpid() == self._pid:
            self._samples.append(sample)
        else:
            path = os.path.join(self.spool, f"visits.{os.getpid()}")
            with open(path, "a") as handle:
                handle.write(" ".join(map(repr, sample)) + "\n")
        return outcome

    def take(self) -> tuple[list[Sample], list[Sample]]:
        """Samples since the last call: this process's, then the workers'."""
        spooled: list[Sample] = []
        for name in sorted(os.listdir(self.spool)):
            if name.startswith("visits."):
                path = os.path.join(self.spool, name)
                with open(path) as handle:
                    spooled.extend(
                        tuple(float(x) for x in line.split()) for line in handle
                    )
                os.unlink(path)
        local, self._samples = self._samples, []
        return local, spooled


class StoreClock:
    """Wall time of the result stores' lookups and batched writes.

    :meth:`attach` wraps one store's ``get`` and ``put_batch`` on the
    instance, so the class and the profiler's view of it stay as they
    are.  Every lookup is of one paired visit; a batch counts the
    visits it writes, and its time includes the journal rows it commits.
    """

    def __init__(self) -> None:
        self.get_s = self.put_s = 0.0
        self.gets = self.puts = 0

    def attach(self, store: ResultStore) -> ResultStore:
        get, put_batch = store.get, store.put_batch

        def timed_get(*args, **kwargs):
            start = time.perf_counter()
            try:
                return get(*args, **kwargs)
            finally:
                self.get_s += time.perf_counter() - start
                self.gets += 1

        def timed_put_batch(entries, *args, **kwargs):
            start = time.perf_counter()
            try:
                return put_batch(entries, *args, **kwargs)
            finally:
                self.put_s += time.perf_counter() - start
                self.puts += len(entries)

        store.get, store.put_batch = timed_get, timed_put_batch
        return store

    def ms_per_visit(self) -> tuple[float, float]:
        """Mean ms per visit looked up, and per visit written, so far."""
        return (
            1000.0 * self.get_s / max(self.gets, 1),
            1000.0 * self.put_s / max(self.puts, 1),
        )


@dataclass
class PassResult:
    """What one pass of a workload produced and cost."""

    visits: int
    failed: int
    digest: str
    #: Wall and CPU seconds of the cold campaign (CPU includes workers),
    #: less the reference samples taken in it.  On the pool the workers
    #: sample side by side, so the wall time loses the samples' summed
    #: time divided by the number of workers.
    wall_s: float
    cpu_s: float
    parent_cpu_s: float
    visit_ms: list[float]
    #: Merged event-loop callback profile (profile_loop passes only).
    loop_profile: dict | None
    #: The host's ``(cpu, wall)`` slowdown over the cold campaign, from
    #: the reference samples after its visits (1.0 when not sampling).
    slowdown: tuple[float, float] = (1.0, 1.0)
    #: The warm replays: visits in each, and each one's wall and digest.
    replay_visits: int = 0
    replay_wall_s: list[float] = field(default_factory=list)
    replay_digests: list[str] = field(default_factory=list)
    #: The host's wall slowdown over each replay, from the reference
    #: samples just before and after it (timed passes only).
    replay_slowdowns: list[float] = field(default_factory=list)
    #: Artifact bytes and stored visits of the replayed store.
    store_bytes: int = 0
    stored_visits: int = 0

    @property
    def attempted(self) -> int:
        return self.visits + self.replay_visits * len(self.replay_wall_s)


class Bench:
    """A workload bound to its universe, seed and scratch directory."""

    def __init__(
        self, workload: Workload, seed: int, workdir: str, pages: int | None = None
    ) -> None:
        self.workload = workload
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.universe = cached_universe(UNIVERSE_CONFIG, UNIVERSE_SEED)
        self.sim = workload.scenario.campaign_config(seed=seed).sim
        count = pages if pages is not None else workload.pages
        self.pages = tuple(self.universe.pages[:count])
        self.workers = pool_workers() if workload.pooled else 1
        self.clock = VisitClock(workdir)
        self.store_clock = StoreClock()
        self._stores: list[ResultStore] = []
        #: The store and pages serial workloads replay (set by warm-up).
        self._replay: tuple[ResultStore, tuple] | None = None

    def open_store(self) -> ResultStore:
        """A fresh, empty, timed result store under the scratch directory."""
        store = self.store_clock.attach(
            ResultStore(os.path.join(self.workdir, f"store-{len(self._stores)}"))
        )
        self._stores.append(store)
        return store

    def campaign(self, pages, *, workers=1, store=None, telemetry=None):
        return execute(
            CampaignPlan(
                universe=self.universe,
                sim=self.sim,
                telemetry=telemetry,
                pages=pages,
                workers=workers,
                store=store,
                run_name="bench" if store is not None else None,
            )
        )

    def warm_up(self) -> tuple[str, int, int]:
        """The untimed warm-up: ``(digest, visits, failed)``.

        Serial workloads warm up on the first ``WARMUP_PAGES`` pages
        with a write-through store, which every pass then replays.  The
        pooled workload warms up on a serial run of its full page set:
        that run is also the ``workers=1`` reference its pool digest
        must equal.
        """
        if self.workload.pooled:
            result = self.campaign(self.pages)
        else:
            pages = self.pages[:WARMUP_PAGES]
            store = self.open_store()
            result = self.campaign(pages, store=store)
            self._replay = (store, pages)
        visits = len(result.paired_visits) + len(result.failures)
        return digest(result), visits, len(result.failures)

    def run_pass(
        self,
        *,
        telemetry: TelemetryConfig | None = None,
        profiler: cProfile.Profile | None = None,
    ) -> PassResult:
        """One cold campaign, then its warm replays.

        A plain pass is a timed one: reference samples follow its visits
        and replays.  ``telemetry`` or ``profiler`` make it an observed
        pass without them.  ``profiler`` is enabled around the cold
        campaign, and around the replays on the pooled workload, where
        the store is part of the work being measured.
        """
        sampling = telemetry is None and profiler is None
        store = self.open_store() if self.workload.pooled else None
        self.clock.take()
        self.clock.sampling = sampling
        cpu0, parent0, wall0 = cpu_seconds(), time.process_time(), time.perf_counter()
        try:
            with _profiling(profiler):
                cold = self.campaign(
                    self.pages, workers=self.workers, store=store, telemetry=telemetry
                )
        finally:
            self.clock.sampling = False
        wall = time.perf_counter() - wall0
        cpu, parent_cpu = cpu_seconds() - cpu0, time.process_time() - parent0
        local, spooled = self.clock.take()
        references = [(c, w) for _, c, w in local + spooled] if sampling else []
        result = PassResult(
            visits=len(cold.paired_visits) + len(cold.failures),
            failed=len(cold.failures),
            digest=digest(cold),
            wall_s=wall - sum(w for _, w in references) / self.workers,
            cpu_s=cpu - sum(c for c, _ in references),
            parent_cpu_s=parent_cpu - sum(c for _, c, _ in local),
            visit_ms=[ms for ms, _, _ in local + spooled],
            loop_profile=cold.loop_profile,
            slowdown=slowdown(references),
        )
        if store is not None:
            replay_store, replay_pages = store, self.pages
        else:
            replay_store, replay_pages = self._replay
            profiler = None
        result.replay_visits = len(replay_pages)
        before = reference_seconds() if sampling else None
        for _ in range(REPLAY_PASSES):
            start = time.perf_counter()
            with _profiling(profiler):
                warm = self.campaign(
                    replay_pages, workers=self.workers, store=replay_store
                )
            result.replay_wall_s.append(time.perf_counter() - start)
            result.replay_digests.append(digest(warm))
            if sampling:
                after = reference_seconds()
                result.replay_slowdowns.append(slowdown([before, after])[1])
                before = after
        stats = replay_store.stats_summary()
        result.store_bytes, result.stored_visits = stats["artifact_bytes"], stats["entries"]
        if store is not None:
            store.close()
            self._stores.remove(store)
            shutil.rmtree(store.root, ignore_errors=True)
        return result

    def close(self) -> None:
        self.clock.uninstall()
        for store in self._stores:
            store.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


@contextlib.contextmanager
def _profiling(profiler: cProfile.Profile | None):
    """Enable ``profiler`` (if any) for the body of a ``with`` block."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
