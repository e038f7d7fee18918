"""The repo benchmark: paired H2/H3 visits per CPU-second, layer by layer.

Run from the repository root.  One run of one workload (the form
``BENCHMARK.json``'s command takes)::

    python3 benchmarks/harness/run.py --workload paper-packet --seed 11 \\
        --seconds 20 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
by name with its unit, checks the results, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when a
check fails and 2 when the checkout has no ``src/repro`` to measure.

Every workload, ``--reps`` fresh interpreters each, round robin so host
drift hits every workload alike, aggregated into a report for
``compare.py``::

    python3 benchmarks/harness/run.py --seed 11 --reps 5 --out R.json [--trace]

``--pin`` re-pins the result digests of ``digests.json`` at ``--seed``.
See README.md for the workloads, metrics and protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORKDIR = os.path.join(ROOT, ".harness_work")

#: Generous per-child timeout: a run measures ``--seconds`` plus set-up.
CHILD_TIMEOUT_S = 900
#: Prefixes the line naming metrics whose counted function is gone.
NULL_PREFIX = "null metrics: "
#: Reference samples a set-up interpreter takes before, and again after,
#: the set-up it times.
SETUP_REFERENCES = 4


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------


class Checks:
    """Correctness checks of one run; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        print(f"  check {name}: {'ok' if ok else 'MISMATCH ' + detail}")
        if not ok:
            self.failures.append(name)


def setup_probe(args) -> int:
    """Time one set-up in this fresh interpreter, between reference samples.

    Set-up is importing ``repro``, building the universe and the
    workload's config, and opening the store on the pooled workload.
    Prints the set-up seconds and the host's wall slowdown around it.
    """
    from reference import reference_seconds, slowdown

    references = [reference_seconds() for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    bench = workloads.Bench(
        workload, args.seed, os.path.join(WORKDIR, f"probe-{os.getpid()}"), args.pages
    )
    if workload.pooled:
        bench.open_store()
    elapsed = time.perf_counter() - start
    references += [reference_seconds() for _ in range(SETUP_REFERENCES)]
    bench.close()
    print(repr(elapsed), repr(slowdown(references)[1]))
    return 0


def setup_samples(args) -> list[tuple[float, float]]:
    """``(set-up seconds, slowdown)`` of separate fresh interpreters."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.pages is not None:
        command += ["--pages", str(args.pages)]
    samples = []
    for _ in range(args.setup_samples):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        setup_s, slowdown = done.stdout.split()[-2:]
        samples.append((float(setup_s), float(slowdown)))
    return samples


def measure(bench, seconds: float) -> list:
    """Timed passes, back to back, until ``seconds`` have passed.

    At least one pass runs; the loop stops when half a typical pass
    would overrun the deadline.
    """
    passes, durations = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(bench.run_pass())
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) / 2 >= deadline:
            return passes


def pinned_digest(path: str, seed: int, workload: str, pages: int) -> str | None:
    try:
        with open(path) as handle:
            pins = json.load(handle)
    except FileNotFoundError:
        return None
    pin = pins.get(str(seed), {}).get(workload)
    if pin is None or pin["pages"] != pages:
        return None
    return pin["digest"]


def end_to_end(passes: list, setup: list, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, timings scaled to the reference host.

    Each timing is divided by the host's slowdown measured alongside it:
    a cold campaign's (and its visits') by the reference samples after
    its visits, a replay's by the samples just before and after it, a
    set-up sample's by those of its own interpreter.  ``scaled=False``
    gives the raw timings.
    """

    def scale(slowdown: float) -> float:
        return slowdown if scaled else 1.0

    samples = [
        ms / scale(p.slowdown[1]) for p in passes for ms in p.visit_ms
    ]
    return {
        "visits_per_cpu_s": statistics.median(
            p.visits / p.cpu_s * scale(p.slowdown[0]) for p in passes
        ),
        "visits_per_s": statistics.median(
            p.visits / p.wall_s * scale(p.slowdown[1]) for p in passes
        ),
        "visit_ms_p50": statistics.median(samples),
        "visit_ms_p90": (
            statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(
            seconds / scale(slowdown) for seconds, slowdown in setup
        ),
        "replay_visits_per_s": statistics.median(
            p.replay_visits / wall * scale(slowdown)
            for p in passes
            for wall, slowdown in zip(p.replay_wall_s, p.replay_slowdowns)
        ),
    }


def per_layer(bench, passes: list, checks: Checks) -> tuple[dict, list]:
    """The per-layer metrics, from a profile_loop pass and a profiled pass.

    They are two passes because ``profile_loop`` wakes the telemetry
    layer whose dormant cost the profiled pass measures.  Returns the
    metrics and both passes.
    """
    import cProfile

    from layers import Ledger, layer_metrics
    from repro.measurement import TelemetryConfig

    store_ms_per_visit = bench.store_clock.ms_per_visit()
    loop_pass = bench.run_pass(telemetry=TelemetryConfig(profile_loop=True))
    profiler = cProfile.Profile()
    traced = bench.run_pass(profiler=profiler)
    untraced = passes[0].digest
    checks.expect("profile_loop pass equals untraced", loop_pass.digest == untraced)
    checks.expect("traced pass equals untraced", traced.digest == untraced)
    visit_s = sum(ms for p in passes for ms in p.visit_ms) / 1000.0
    slot_s = sum(p.wall_s for p in passes) * bench.workers
    metrics = layer_metrics(
        Ledger(profiler),
        traced.visits,
        dispatched=sum(e["count"] for e in (loop_pass.loop_profile or {}).values()),
        outside_visit_pct=100.0 * (1.0 - visit_s / slot_s),
        parent_cpu_pct=100.0
        * sum(p.parent_cpu_s for p in passes) / sum(p.cpu_s for p in passes),
        store_ms_per_visit=store_ms_per_visit,
        bytes_per_visit=(
            traced.store_bytes / traced.stored_visits if traced.stored_visits else None
        ),
        overhead_pct=100.0
        * (traced.cpu_s / statistics.median(p.cpu_s for p in passes) - 1.0),
    )
    return metrics, [loop_pass, traced]


def run_workload(args) -> int:
    import workloads

    table = load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in table[kind]}
    workload = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else setup_samples(args)
    bench = workloads.Bench(
        workload, args.seed, os.path.join(WORKDIR, str(os.getpid())), args.pages
    )
    checks = Checks()
    try:
        bench.clock.install()
        reference, attempted, failed = bench.warm_up()
        gc.collect()
        gc.freeze()
        passes = measure(bench, args.seconds)
        first = passes[0]
        print(
            f"{workload.name} seed {args.seed}: {len(passes)} passes of "
            f"{first.visits} paired visits ({bench.workers} worker(s)), "
            f"{sum(len(p.visit_ms) for p in passes)} visit timings, "
            f"{len(setup)} set-up samples"
        )
        checks.expect(
            "every pass equals the first",
            all(p.digest == first.digest for p in passes),
        )
        pin = pinned_digest(args.digests, args.seed, workload.name, len(bench.pages))
        if pin is not None:
            checks.expect(
                "pinned digest", first.digest == pin, f"{first.digest} != {pin}"
            )
        if workload.pooled:
            checks.expect(
                "workers=N equals workers=1", first.digest == reference,
                f"{first.digest} != {reference}",
            )
        replayed = first.digest if workload.pooled else reference
        checks.expect(
            "warm replay equals cold run",
            all(d == replayed for p in passes for d in p.replay_digests),
        )
        if args.trace:
            metrics, extra = per_layer(bench, passes, checks)
            passes += extra
            raw = {}
        else:
            metrics = end_to_end(passes, setup)
            raw = end_to_end(passes, setup, scaled=False)
        attempted += sum(p.attempted for p in passes)
        failed += sum(p.failed for p in passes)
    finally:
        bench.close()
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    if set(metrics) != set(units):
        raise SystemExit(f"metrics drifted from BENCHMARK.json: {sorted(metrics)}")
    for name, unit in units.items():
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        unscaled = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<38} {shown:>12} {unit}{unscaled}")
    correct = not checks.failures
    # The result line carries numbers only.  A value the ledger leaves
    # None (a counted function that no longer exists, or a ratio over
    # zero) is reported there as 0, and named on the line before it.
    gone = [name for name in units if metrics[name] is None]
    if gone:
        print(f"{NULL_PREFIX}{','.join(gone)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else attempted,
        "metrics": {
            name: {"value": metrics[name] or 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def pin_digests(args) -> int:
    """Re-pin every workload's digest at ``--seed`` into ``--digests``."""
    import workloads

    try:
        with open(args.digests) as handle:
            pins = json.load(handle)
    except FileNotFoundError:
        pins = {}
    pinned = pins.setdefault(str(args.seed), {})
    for name, workload in workloads.WORKLOADS.items():
        bench = workloads.Bench(
            workload, args.seed, os.path.join(WORKDIR, str(os.getpid())), args.pages
        )
        try:
            bench.warm_up()
            result = bench.run_pass()
        finally:
            bench.close()
        pinned[name] = {"pages": len(bench.pages), "digest": result.digest}
        print(f"{name}: {result.digest} ({len(bench.pages)} pages)")
    with open(args.digests, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# Every workload, several reps
# ----------------------------------------------------------------------


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def stamp(args) -> dict:
    """What a report must share with another before they can be compared."""
    from repro.events import EventLoop

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "event_loop": f"{EventLoop.__module__}.{EventLoop.__qualname__}",
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "pages": args.pages,
        "setup_samples": args.setup_samples,
    }


def child_run(args, workload: str, trace: int) -> dict:
    """One fresh-interpreter run of one workload; its parsed result line."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--setup-samples", str(args.setup_samples),
        "--digests", args.digests,
    ]
    if args.pages is not None:
        command += ["--pages", str(args.pages)]
    start = time.perf_counter()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    for line in lines:
        if line.startswith(NULL_PREFIX):
            for name in line[len(NULL_PREFIX):].split(","):
                result["metrics"][name]["value"] = None
    status = "ok" if result["correct"] else "MISMATCH"
    print(
        f"  {workload:<16} trace={trace} {status} "
        f"({time.perf_counter() - start:.1f} s)", flush=True
    )
    if not result["correct"]:
        print("\n".join(line for line in lines if "check" in line))
    return result


def run_reps(args) -> int:
    from layers import METRICS

    table = load_benchmark()
    names = [w["name"] for w in table["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        print(f"rep {rep + 1}/{args.reps}", flush=True)
        for name in names:
            runs[name].append(child_run(args, name, 0))
    traced = {name: child_run(args, name, 1) for name in names} if args.trace else {}
    exact = {metric.name: metric.exact for metric in METRICS}
    report = {"stamp": stamp(args), "workloads": {}}
    ok = True
    for name in names:
        results = runs[name] + ([traced[name]] if name in traced else [])
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        entry = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_visit_ratio": failed / attempted if attempted else 1.0,
            "metrics": {},
        }
        for spec in table["end_to_end"]:
            values = [
                r["metrics"][spec["name"]]["value"]
                for r in runs[name] if spec["name"] in r["metrics"]
            ]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            entry["metrics"][spec["name"]] = {
                "unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "median": median, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        if name in traced:
            entry["per_layer"] = {
                spec["name"]: {
                    "unit": spec["unit"], "better": spec["better"],
                    "exact": exact[spec["name"]],
                    "value": traced[name]["metrics"].get(spec["name"], {}).get("value"),
                }
                for spec in table["per_layer"]
            }
        report["workloads"][name] = entry
    print_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


def print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(
            f"{name}: correct={entry['correct']} "
            f"failed_visit_ratio={entry['failed_visit_ratio']:.3g} "
            f"({entry['failed']}/{entry['attempted']})"
        )
        for metric, m in entry["metrics"].items():
            print(
                f"  {metric:<22} {m['median']:>10.4g} {m['unit']:<6} "
                f"[{m['q1']:.4g}, {m['q3']:.4g}] n={m['n']}"
            )
        for metric, m in entry.get("per_layer", {}).items():
            shown = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:<38} {shown:>12} {m['unit']}")


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=11, help="campaign seed")
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report the per-layer metrics of a profiled pass",
    )
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", help="write the aggregated report here")
    parser.add_argument("--pages", type=int, help="pages per pass (tiny runs)")
    parser.add_argument("--setup-samples", type=int, default=10)
    parser.add_argument("--digests", default=DIGESTS, help="pinned digests")
    parser.add_argument("--pin", action="store_true", help="re-pin digests at --seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.pin:
        return pin_digests(args)
    if args.workload:
        return run_workload(args)
    return run_reps(args)


if __name__ == "__main__":
    raise SystemExit(main())
