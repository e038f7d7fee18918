"""Campaign-engine benchmark: serial vs parallel wall-clock + substrate.

Standalone script (not a pytest-benchmark module) so the perf
trajectory of the parallel runner is tracked as one JSON artifact::

    PYTHONPATH=src python benchmarks/bench_campaign.py \
        --pages 32 --workers 2,4 --out BENCH_campaign.json

It measures, on one ≥32-page universe:

* serial (``workers=1``) campaign wall-clock and CPU time,
* parallel campaign wall-clock per worker count, with a determinism
  check against the serial result (skipped — and annotated — when the
  host exposes fewer than two CPUs: a pool cannot beat the serial run
  there and a sub-1.0 "speedup" would only pollute the history),
* observability overhead: the same campaign with counters only and
  with full tracing, as both wall-clock and CPU-time percentages (CPU
  time is the stable estimator on noisy shared hosts),
* metrics-sampler overhead: the sim-time sampler
  (``CampaignConfig.metrics_interval_ms``) on vs off with the paired
  median-ratio estimator, an off-vs-off canary that bounds what the
  host can resolve, and a result-fingerprint identity check,
* the analytic transport fast path (``TransportConfig.fast_path``) on
  vs off, with a PLT-identity audit of the paired visits,
* DES substrate events/sec for **every** scheduler implementation
  (pure-Python binary heap, C kernel when built) on two shapes: a
  chained-callback hot loop and a schedule/cancel timer churn — so the
  C core's advantage stays measured, not assumed — plus a lossy 500 KB
  transfer on the default loop.

Speedup expectations scale with *available cores* (recorded in the
output): on a single-core container the pool cannot beat the serial
run, and the artifact says so rather than pretending otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque

from repro.events import EventLoop
from repro.events.loop import CEventLoop, HeapEventLoop
from repro.measurement import CampaignConfig, CampaignPlan, execute
from repro.netsim import NetemProfile, NetworkPath
from repro.transport import QuicConnection, TransportConfig
from repro.web.topsites import GeneratorConfig, cached_universe


def campaign_runner(universe, config):
    """A ``run(pages, ...)`` callable over the streaming executor.

    Mirrors the deprecated ``Campaign(universe, config).run`` shape the
    bench's timing helpers expect, without the deprecation warning.
    """
    def run(pages, workers=1, store=None, run_name=None):
        return execute(CampaignPlan(
            universe=universe,
            sim=config,
            pages=tuple(pages),
            workers=workers,
            store=store,
            run_name=run_name,
        ))
    return run


def git_sha() -> str | None:
    """The current commit, or None outside a git checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip()
            or None
        )
    except OSError:
        return None


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def timed(fn, *args, **kwargs):
    """``(result, wall_seconds, cpu_seconds)`` for one call.

    Collects then freezes the heap first so the cyclic GC only scans
    objects the measured call itself allocates.  Without this, sections
    that run later in the bench get billed for collections that scan
    every retained result from *earlier* sections — on the smoke scale
    that mismeasured tracing overhead by >20 points.
    """
    gc.collect()
    gc.freeze()
    wall = time.perf_counter()
    cpu = time.process_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - wall, time.process_time() - cpu


def timed_best(repeats, fn, *args, **kwargs):
    """``timed`` over ``repeats`` calls, keeping the minimum times.

    Minimum-of-N is the standard noise estimator for CPU-bound work: a
    run can only be slowed down by interference, never sped up, so the
    minimum is the closest observation to the true cost.  Overhead
    percentages at smoke scale (~1.5 s runs on shared 1-CPU hosts)
    swing by tens of points single-shot; min-of-3 makes them gateable.
    """
    result, best_wall, best_cpu = timed(fn, *args, **kwargs)
    for _ in range(repeats - 1):
        _, wall_s, cpu_s = timed(fn, *args, **kwargs)
        best_wall = min(best_wall, wall_s)
        best_cpu = min(best_cpu, cpu_s)
    return result, best_wall, best_cpu


def bench_store_cold_vs_warm(universe, pages, config) -> dict:
    """Cold (all misses, write-through) vs warm (100% replay) campaign.

    The warm number is the store's raison d'être: replaying should cost
    file reads and JSON decoding, not simulation.
    """
    from repro.store import ResultStore

    with tempfile.TemporaryDirectory() as tmp:
        with ResultStore(os.path.join(tmp, "store")) as store:
            run = campaign_runner(universe, config)
            start = time.perf_counter()
            cold = run(pages, store=store, run_name="bench")
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = run(pages, store=store, run_name="bench")
            warm_s = time.perf_counter() - start
            if fingerprint(warm) != fingerprint(cold):
                raise SystemExit("warm store replay diverged from cold run")
            return {
                "cold_seconds": cold_s,
                "warm_seconds": warm_s,
                "replay_speedup": cold_s / warm_s if warm_s > 0 else None,
                "hits": warm.store_stats.hits,
                "misses": cold.store_stats.misses,
            }


def append_history(payload: dict, out_path: str) -> dict:
    """Fold ``payload`` into the artifact's append-only history.

    Each invocation appends one ``{sha, timestamp, ...headline}`` entry
    to a ``history`` list carried across runs of the same artifact, so
    the perf trajectory is greppable from the single JSON file.
    ``--sections`` runs omit whole payload sections, so every headline
    read is ``.get``-tolerant and absent values are dropped.
    """
    history: list[dict] = []
    if os.path.exists(out_path):
        try:
            with open(out_path) as handle:
                history = json.load(handle).get("history", [])
        except (ValueError, OSError):
            history = []
    tracing = payload.get("tracing") or {}
    substrate = payload.get("substrate") or {}
    metrics = payload.get("metrics_sampler") or {}
    entry = {
        "git_sha": git_sha(),
        "timestamp_unix": time.time(),
        "serial_seconds": payload["serial_seconds"],
        "parallel": {
            workers: run["seconds"]
            for workers, run in (payload.get("parallel") or {}).items()
        },
        "store_warm_seconds": (payload.get("store") or {}).get("warm_seconds"),
        "kernel_events_per_sec": substrate.get("kernel_events_per_sec"),
        "kernel_chain": {
            name: impl["chain_events_per_sec"]
            for name, impl in (substrate.get("kernels") or {}).items()
        },
        "tracing_overhead_cpu_pct": tracing.get("overhead_cpu_pct"),
        "tracing_overhead_cpu_pct_paired":
            tracing.get("overhead_cpu_pct_paired"),
        "fast_path_speedup": (payload.get("fast_path") or {}).get("cpu_speedup"),
        "metrics_overhead_cpu_pct_paired":
            metrics.get("overhead_cpu_pct_paired"),
        "metrics_disabled_canary_pct": metrics.get("disabled_canary_pct"),
        "metrics_disabled_canary_minmin_pct":
            metrics.get("disabled_canary_minmin_pct"),
        "streaming_rss_growth_ratio":
            (payload.get("streaming_memory") or {}).get("rss_growth_ratio"),
    }
    history.append({k: v for k, v in entry.items() if v is not None})
    payload["history"] = history
    return payload


def _kernel_impls() -> dict[str, type]:
    impls: dict[str, type] = {"heap": HeapEventLoop}
    if CEventLoop is not None:
        impls["c"] = CEventLoop
    return impls


def bench_kernel_chain(loop_cls, n_events: int = 200_000) -> float:
    """Chained call_later throughput: the scheduler's inner loop."""
    loop = loop_cls()
    state = {"n": 0}

    def tick() -> None:
        state["n"] += 1
        if state["n"] < n_events:
            loop.call_later(0.01, tick)

    loop.call_later(0.0, tick)
    start = time.perf_counter()
    loop.run()
    return n_events / (time.perf_counter() - start)


def bench_kernel_churn(loop_cls, n_events: int = 200_000) -> float:
    """Schedule-then-cancel churn: the delayed-ack/PTO re-arm pattern.

    Every tick arms a fresh 7.5 ms timer and cancels the one armed two
    ticks earlier, so nearly every timer dies before it surfaces and
    is discarded lazily at the head of the queue.
    """
    loop = loop_cls()
    timers: deque = deque()
    state = {"n": 0}

    def noop() -> None:  # pragma: no cover - cancelled before firing
        pass

    def tick() -> None:
        state["n"] += 1
        timers.append(loop.call_later(7.5, noop))
        if len(timers) > 2:
            timers.popleft().cancel()
        if state["n"] < n_events:
            loop.call_later(0.01, tick)

    loop.call_later(0.0, tick)
    start = time.perf_counter()
    loop.run()
    return n_events / (time.perf_counter() - start)


def bench_kernels(n_events: int = 200_000) -> dict:
    """Both shapes across every built scheduler implementation."""
    return {
        name: {
            "chain_events_per_sec": bench_kernel_chain(cls, n_events),
            "churn_events_per_sec": bench_kernel_churn(cls, n_events),
        }
        for name, cls in _kernel_impls().items()
    }


def bench_transfer_events_per_sec(response_bytes: int = 500_000) -> dict:
    """A lossy QUIC transfer: packets, acks, timers — the real mix."""
    loop = EventLoop()
    path = NetworkPath(
        loop,
        NetemProfile(delay_ms=15.0, loss_rate=0.02, rate_mbps=50.0),
        rng=random.Random(7),
    )
    conn = QuicConnection(loop, path)
    done: list = []
    conn.connect(done.append)
    loop.run_until(lambda: bool(done))
    stream = conn.request(400, response_bytes)
    start = time.perf_counter()
    loop.run_until(lambda: stream.complete)
    elapsed = time.perf_counter() - start
    return {
        "events": loop.processed_events,
        "events_per_sec": loop.processed_events / elapsed,
    }


def bench_fast_path(universe, pages, slow_result, slow_cpu_s, repeats=1) -> dict:
    """The analytic fast path vs the packet path, plus a fidelity audit.

    ``slow_result``/``slow_cpu_s`` are the default serial campaign
    (fast path off) measured by the caller.  The audit counts paired
    visits whose PLT is bit-identical across the two paths and reports
    the worst relative divergence — the documented residual is
    same-instant tie-breaking, so this should sit at ~0%.
    """
    run_fast = campaign_runner(
        universe,
        CampaignConfig(seed=3, transport_config=TransportConfig(fast_path=True)),
    )
    fast, fast_wall_s, fast_cpu_s = timed_best(
        repeats, run_fast, pages, workers=1
    )
    visits = identical = 0
    worst = 0.0
    for slow_pv, fast_pv in zip(slow_result.paired_visits, fast.paired_visits):
        for slow_v, fast_v in ((slow_pv.h2, fast_pv.h2), (slow_pv.h3, fast_pv.h3)):
            visits += 1
            if slow_v.plt_ms == fast_v.plt_ms:
                identical += 1
            if slow_v.plt_ms:
                worst = max(
                    worst, abs(slow_v.plt_ms - fast_v.plt_ms) / slow_v.plt_ms
                )
    return {
        "off_cpu_seconds": slow_cpu_s,
        "on_cpu_seconds": fast_cpu_s,
        "on_seconds": fast_wall_s,
        "cpu_speedup": slow_cpu_s / fast_cpu_s if fast_cpu_s > 0 else None,
        "visits": visits,
        "plt_identical": identical,
        "plt_worst_rel_delta_pct": worst * 100.0,
    }


def bench_metrics_sampler(universe, pages, repeats: int) -> dict:
    """Sim-time metrics sampler on vs off, with a resolution canary.

    Each round runs six campaigns in the *position-balanced* order
    ``offA, offB, on, on, offB, offA``: within a round, every variant
    occupies symmetric positions, so both linear host drift and the
    first-run-is-faster positional bias (which reads as a phantom +10%
    on small runs) cancel out of the within-round ratios.

    * ``overhead_cpu_pct_paired`` — median over rounds of on-pair CPU
      over the off runs (the gateable number),
    * ``overhead_cpu_pct`` — min-of-series over min-of-series
      (continuity with the tracing section; resolution-limited),
    * ``disabled_canary_pct`` / ``disabled_canary_minmin_pct`` — the
      balanced-paired and the min-over-min estimators applied to the
      two *identical* off series.  Whatever they read is pure host
      noise; they bound what this host can resolve, and stand in for
      the disabled-path overhead claim (the sampler-off code differs
      from a telemetry-free build only by falsy-guard checks — the
      hard guarantee is bit-identity, asserted via fingerprints here
      and in the tests).  The min/min form converges fast (a run can
      only be slowed, never sped up, so series minima of identical
      work agree closely) and is the one the obs-smoke gate reads.

    One full round runs untimed first: cold processes spend their first
    ~10 runs 15–30% above steady state (allocator/branch-predictor
    warm-up), a curvature the balanced order cannot cancel.

    Rounds are *adaptive*: the canary doubles as a measurement-validity
    check, so while it reads ≥2% (i.e. the run was polluted by a host
    noise burst — identical code cannot differ) the loop keeps adding
    rounds, up to ``3 × repeats``, letting the medians and series
    minima converge before anything is reported or gated.
    """
    run_off_a = campaign_runner(universe, CampaignConfig(seed=3))
    run_off_b = campaign_runner(universe, CampaignConfig(seed=3))
    run_on = campaign_runner(
        universe, CampaignConfig(seed=3, metrics_interval_ms=5.0)
    )
    for run in (run_off_a, run_off_b, run_on):
        timed(run, pages, workers=1)
        timed(run, pages, workers=1)
    off_a_series: list[float] = []
    off_b_series: list[float] = []
    on_series: list[float] = []
    on_ratios: list[float] = []
    canary_ratios: list[float] = []
    off_result = on_result = None
    rounds = 0
    while True:
        off_result, _, off_a1 = timed(run_off_a, pages, workers=1)
        _, _, off_b1 = timed(run_off_b, pages, workers=1)
        on_result, _, on_1 = timed(run_on, pages, workers=1)
        _, _, on_2 = timed(run_on, pages, workers=1)
        _, _, off_b2 = timed(run_off_b, pages, workers=1)
        _, _, off_a2 = timed(run_off_a, pages, workers=1)
        off_a_series += [off_a1, off_a2]
        off_b_series += [off_b1, off_b2]
        on_series += [on_1, on_2]
        off_mean = (off_a1 + off_a2 + off_b1 + off_b2) / 2.0
        on_ratios.append((on_1 + on_2) / off_mean)
        canary_ratios.append((off_b1 + off_b2) / (off_a1 + off_a2))
        rounds += 1
        canary_paired = statistics.median(canary_ratios) - 1.0
        canary_minmin = min(off_b_series) / min(off_a_series) - 1.0
        converged = min(abs(canary_paired), abs(canary_minmin)) < 0.02
        if rounds >= repeats and (converged or rounds >= 3 * repeats):
            break
    off_series = off_a_series + off_b_series
    if fingerprint(on_result) != fingerprint(off_result):
        raise SystemExit("metrics-sampler run diverged from the plain run")
    samples = sum(1 for _ in on_result.metrics_events())
    off_cpu_s = min(off_series)
    on_cpu_s = min(on_series)
    return {
        "interval_ms": 5.0,
        "samples": samples,
        "rounds": rounds,
        "off_cpu_seconds": off_cpu_s,
        "on_cpu_seconds": on_cpu_s,
        "overhead_cpu_pct": 100.0 * (on_cpu_s - off_cpu_s) / off_cpu_s,
        "overhead_cpu_pct_paired": 100.0 * (
            statistics.median(on_ratios) - 1.0
        ),
        "disabled_canary_pct": 100.0 * canary_paired,
        "disabled_canary_minmin_pct": 100.0 * canary_minmin,
        "fingerprint_identical": True,
    }


def fingerprint(result) -> list:
    return [
        (pv.probe_name, pv.page.url, pv.h2.plt_ms, pv.h3.plt_ms)
        for pv in result.paired_visits
    ]


def bench_streaming_memory(
    pages_small: int = 256, pages_large: int = 2048
) -> dict:
    """Peak RSS of a summary-only streaming campaign vs page count.

    The streaming executor's contract: memory is O(in-flight window +
    folded summary), not O(pages).  Each point runs in its own
    subprocess (``rss_probe.py``) because ``ru_maxrss`` is a process-
    lifetime high-water mark.  The recorded ratio should stay ~1.0; the
    stream-smoke CI gate asserts < 1.15.
    """
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "rss_probe.py")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(probe)), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    points = {}
    for n_pages in (pages_small, pages_large):
        output = subprocess.run(
            [sys.executable, probe, "--pages", str(n_pages)],
            check=True, capture_output=True, text=True, env=env,
        ).stdout
        points[n_pages] = json.loads(output)
    small, large = points[pages_small], points[pages_large]
    return {
        "pages_small": pages_small,
        "pages_large": pages_large,
        "rss_small_kb": small["peak_rss_kb"],
        "rss_large_kb": large["peak_rss_kb"],
        "rss_growth_ratio": large["peak_rss_kb"] / small["peak_rss_kb"],
        "seconds_small": small["seconds"],
        "seconds_large": large["seconds"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pages", type=int, default=32)
    parser.add_argument("--sites", type=int, default=32)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", default="2,4",
                        help="comma-separated worker counts to benchmark")
    parser.add_argument("--out", default="BENCH_campaign.json")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="repeat timed campaign runs, keep the min (noise control "
        "for short smoke runs; see timed_best)",
    )
    parser.add_argument(
        "--sections", default="all",
        help="comma-separated sections to run (default all): "
        "parallel,tracing,fastpath,store,substrate,metrics,memory — "
        "the serial baseline always runs",
    )
    args = parser.parse_args(argv)

    all_sections = {"parallel", "tracing", "fastpath", "store",
                    "substrate", "metrics", "memory"}
    if args.sections == "all":
        sections = all_sections
    else:
        sections = {s.strip() for s in args.sections.split(",") if s.strip()}
        unknown = sections - all_sections
        if unknown:
            parser.error(f"unknown sections: {', '.join(sorted(unknown))}")

    worker_counts = [int(w) for w in args.workers.split(",") if w.strip()]
    universe = cached_universe(GeneratorConfig(n_sites=args.sites), seed=args.seed)
    pages = universe.pages[: args.pages]
    config = CampaignConfig(seed=3)
    run_campaign = campaign_runner(universe, config)
    cpus = available_cpus()

    print(f"universe: {args.sites} sites, measuring {len(pages)} pages")
    # Warm-up pass: the very first campaign pays one-off costs (lazy
    # imports, allocator growth, universe asset generation) that would
    # otherwise inflate the serial baseline — and with it every
    # overhead/speedup percentage computed against it.  Matters most at
    # smoke scale, where warm-up is a large share of a ~2s run.
    run_campaign(pages[: min(4, len(pages))], workers=1)
    serial, serial_s, serial_cpu_s = timed_best(
        args.repeats, run_campaign, pages, workers=1
    )
    print(f"serial (workers=1): {serial_s:.2f}s wall, {serial_cpu_s:.2f}s cpu")

    runs: dict[str, dict] = {}
    parallel_note = None
    if "parallel" not in sections:
        parallel_note = "skipped by --sections"
    elif cpus < 2:
        # A worker pool cannot outrun the serial loop on one CPU; a
        # recorded sub-1.0 "speedup" would read as a regression in the
        # history, so skip the measurement and say why.
        parallel_note = (
            f"skipped: only {cpus} CPU available to this process; "
            "pool speedup is not measurable here"
        )
        print(f"parallel: {parallel_note}")
    else:
        serial_print = fingerprint(serial)
        for workers in worker_counts:
            start = time.perf_counter()
            result = run_campaign(pages, workers=workers)
            elapsed = time.perf_counter() - start
            identical = fingerprint(result) == serial_print
            runs[str(workers)] = {
                "seconds": elapsed,
                "speedup_vs_serial": serial_s / elapsed,
                "identical_to_serial": identical,
            }
            print(
                f"workers={workers}: {elapsed:.2f}s "
                f"(speedup {serial_s / elapsed:.2f}x, identical={identical})"
            )
            if not identical:
                raise SystemExit(f"workers={workers} diverged from the serial run")

    # Observability overhead: the same serial campaign untraced, with
    # counters only, and with full tracing.  Wall-clock is reported for
    # continuity, but the acceptance numbers are CPU-time percentages:
    # on shared hosts the wall clock wobbles far more than the work
    # does.  The three variants are run *interleaved* (off, counters,
    # traced, off, counters, ...) and each series keeps its minimum —
    # host frequency scaling drifts on a timescale of seconds, so
    # back-to-back runs see the same clock and sequential series don't.
    tracing = None
    off_cpu_s = serial_cpu_s
    if "tracing" in sections:
        run_counters = campaign_runner(
            universe, CampaignConfig(seed=3, collect_counters=True)
        )
        run_traced = campaign_runner(
            universe, CampaignConfig(seed=3, collect_counters=True, trace=True)
        )
        off_series: list[float] = []
        counters_series: list[float] = []
        traced_series: list[float] = []
        counters_s = traced_s = float("inf")
        for _ in range(args.repeats):
            _, _, cpu_s = timed(run_campaign, pages, workers=1)
            off_series.append(cpu_s)
            _, wall_s, cpu_s = timed(run_counters, pages, workers=1)
            counters_s = min(counters_s, wall_s)
            counters_series.append(cpu_s)
            _, wall_s, cpu_s = timed(run_traced, pages, workers=1)
            traced_s = min(traced_s, wall_s)
            traced_series.append(cpu_s)
        off_cpu_s = min(off_series)
        counters_cpu_s = min(counters_series)
        traced_cpu_s = min(traced_series)

        tracing = {
            "off_seconds": serial_s,
            "off_cpu_seconds": off_cpu_s,
            "counters_seconds": counters_s,
            "counters_overhead_pct": 100.0 * (counters_s - serial_s) / serial_s,
            "counters_overhead_cpu_pct":
                100.0 * (counters_cpu_s - off_cpu_s) / off_cpu_s,
            "on_seconds": traced_s,
            "overhead_pct": 100.0 * (traced_s - serial_s) / serial_s,
            "overhead_cpu_pct": 100.0 * (traced_cpu_s - off_cpu_s) / off_cpu_s,
            # Median over rounds of the *within-round* traced/off ratio.
            # Each round's pair ran back to back under the same host
            # clock, so the ratio cancels between-round speed drift, and
            # the median sheds rounds where interference hit one member
            # of the pair.  This is the estimator bench-smoke gates on:
            # min/min across series cannot resolve <20% on hosts where
            # identical work varies by tens of percent (the ≈free
            # counters run reads anywhere from -6% to +11% by min/min on
            # such hosts).
            "overhead_cpu_pct_paired": 100.0 * (
                statistics.median(
                    t / o for t, o in zip(traced_series, off_series)
                ) - 1.0
            ),
        }
        print(
            f"tracing (cpu): off {off_cpu_s:.2f}s, "
            f"counters {counters_cpu_s:.2f}s "
            f"({tracing['counters_overhead_cpu_pct']:+.1f}%), "
            f"traced {traced_cpu_s:.2f}s ({tracing['overhead_cpu_pct']:+.1f}%, "
            f"paired {tracing['overhead_cpu_pct_paired']:+.1f}%)"
        )

    metrics_sampler = None
    if "metrics" in sections:
        metrics_sampler = bench_metrics_sampler(universe, pages, args.repeats)
        print(
            f"metrics sampler (cpu): off "
            f"{metrics_sampler['off_cpu_seconds']:.2f}s, on "
            f"{metrics_sampler['on_cpu_seconds']:.2f}s "
            f"({metrics_sampler['overhead_cpu_pct']:+.1f}%, paired "
            f"{metrics_sampler['overhead_cpu_pct_paired']:+.1f}%, canary "
            f"{metrics_sampler['disabled_canary_pct']:+.1f}%), "
            f"{metrics_sampler['samples']} samples"
        )

    fast_path = None
    if "fastpath" in sections:
        fast_path = bench_fast_path(
            universe, pages, serial, off_cpu_s, repeats=args.repeats
        )
        print(
            f"fast path (cpu): off {fast_path['off_cpu_seconds']:.2f}s, "
            f"on {fast_path['on_cpu_seconds']:.2f}s "
            f"(speedup {fast_path['cpu_speedup']:.2f}x, "
            f"{fast_path['plt_identical']}/{fast_path['visits']} PLTs "
            f"identical, "
            f"worst delta {fast_path['plt_worst_rel_delta_pct']:.3f}%)"
        )

    memory_bench = None
    if "memory" in sections:
        memory_bench = bench_streaming_memory()
        print(
            f"memory: {memory_bench['pages_small']} pages "
            f"{memory_bench['rss_small_kb'] / 1024:.0f} MB peak vs "
            f"{memory_bench['pages_large']} pages "
            f"{memory_bench['rss_large_kb'] / 1024:.0f} MB peak "
            f"(growth {memory_bench['rss_growth_ratio']:.3f}x)"
        )

    store_bench = None
    if "store" in sections:
        store_bench = bench_store_cold_vs_warm(universe, pages, config)
        print(
            f"store: cold {store_bench['cold_seconds']:.2f}s, "
            f"warm {store_bench['warm_seconds']:.2f}s "
            f"(replay speedup {store_bench['replay_speedup']:.1f}x, "
            f"{store_bench['hits']} hits)"
        )

    substrate = None
    if "substrate" in sections:
        kernels = bench_kernels()
        transfer = bench_transfer_events_per_sec()
        for name, impl in kernels.items():
            print(
                f"substrate kernel [{name}]: "
                f"chain {impl['chain_events_per_sec']:,.0f} events/s, "
                f"churn {impl['churn_events_per_sec']:,.0f} events/s"
            )
        print(
            f"substrate transfer: {transfer['events']} events, "
            f"{transfer['events_per_sec']:,.0f} events/s"
        )
        default_kernel = "heap" if EventLoop is HeapEventLoop else "c"
        substrate = {
            "default_kernel": default_kernel,
            "kernels": kernels,
            # Headline number: the default loop's chain throughput
            # (field name kept stable for older history entries).
            "kernel_events_per_sec":
                kernels[default_kernel]["chain_events_per_sec"],
            "transfer_events": transfer["events"],
            "transfer_events_per_sec": transfer["events_per_sec"],
        }

    payload = {
        "benchmark": "campaign-engine",
        "pages": len(pages),
        "sites": args.sites,
        "cpu_count": os.cpu_count(),
        "sched_affinity_cpus": cpus,
        "serial_seconds": serial_s,
        "serial_cpu_seconds": serial_cpu_s,
        "parallel": runs,
        "parallel_note": parallel_note,
        "note": (
            "speedup is bounded by available cores; on a 1-core host the "
            "pool adds serialization overhead instead of parallelism"
        ),
    }
    for key, section in (
        ("tracing", tracing),
        ("metrics_sampler", metrics_sampler),
        ("fast_path", fast_path),
        ("store", store_bench),
        ("substrate", substrate),
        ("streaming_memory", memory_bench),
    ):
        if section is not None:
            payload[key] = section
    payload = append_history(payload, args.out)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.out} ({len(payload['history'])} history entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
