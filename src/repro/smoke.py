"""End-to-end smoke gates, one row each: ``python -m repro.smoke <row>``.

Every row of :data:`ROWS` runs ``repro-h3cdn --scale smoke --sites 6``
once per :class:`Run`, into a clean ``.smoke/<row>/`` under the current
directory (the repository root: the bench rows run
``benchmarks/bench_campaign.py``).  For every run it checks that

* every exported JSONL file validates against :mod:`repro.obs.schema`;
* the manifest's ``invocation`` echoes the run's ``--strict``,
  ``--proxy``, ``--faults``, ``--cache-tiers`` and ``--compression``;
* the trace holds every event name in ``events`` and none in
  ``no_events``;
* every named :class:`~repro.experiments.Shape` holds on the run's
  ``results.json`` data.

The row's own ``check`` then asserts what only that row is about.
``make <row>-smoke`` runs the same command, and CI runs one step per
row.  The process exits 1 at the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.check import har_vs_trace
from repro.experiments import find_shape
from repro.experiments import cli as experiments_cli
from repro.obs import export, schema
from repro.store import cli as store_cli

#: Manifest ``invocation`` keys a run must echo from its own flags.
ECHOED = ("strict", "proxy", "faults", "cache_tiers", "compression")


class SmokeFailure(Exception):
    """A smoke check did not hold."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


@dataclass(frozen=True)
class Run:
    """One ``repro-h3cdn`` invocation and what its output must show."""

    experiments: str
    #: Further CLI flags; ``{root}`` stands for the row's directory.
    flags: tuple[str, ...] = ()
    #: Subdirectory of the row's directory this run writes into.
    out: str = ""
    #: Export telemetry (``--trace-dir``) next to ``results.json``.
    trace: bool = True
    shapes: tuple[str, ...] = ()
    events: tuple[str, ...] = ()
    no_events: tuple[str, ...] = ()


@dataclass(frozen=True)
class Row:
    """One smoke gate: why it exists, its runs, and its own checks."""

    why: str
    runs: tuple[Run, ...] = ()
    check: Callable[[Path], None] | None = None


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _execute(run: Run, root: Path) -> None:
    out = root / run.out
    out.mkdir(parents=True, exist_ok=True)
    flags = [flag.format(root=root) for flag in run.flags]
    argv = ["--scale", "smoke", "--sites", "6", "--experiments", run.experiments,
            *flags, "--json", str(out / "results.json")]
    if run.trace:
        argv += ["--trace-dir", str(out)]
    _require(experiments_cli.main(argv) == 0, f"repro-h3cdn {' '.join(argv)} failed")
    exported = [str(path) for path in sorted(out.glob("*.jsonl"))]
    _require(not exported or schema.main(exported) == 0, "schema validation failed")

    results = _load(out / "results.json")
    manifest = _load(out / "run.json") if run.trace else results["manifest"]
    args = experiments_cli.build_parser().parse_args(argv)
    for key in ECHOED:
        echoed = manifest["invocation"][key]
        _require(echoed == getattr(args, key),
                 f"manifest invocation {key}={echoed!r}, flags say {getattr(args, key)!r}")
    if run.events or run.no_events:
        with open(out / "trace.jsonl") as handle:
            names = {json.loads(line)["name"] for line in handle}
        missing = sorted(set(run.events) - names)
        _require(not missing, f"trace lacks {missing}")
        present = sorted(set(run.no_events) & names)
        _require(not present, f"trace holds {present}")
    for name in run.shapes:
        experiment_id, shape = find_shape(name)
        data = results["experiments"][experiment_id]["data"]
        _require(shape.holds(data), f"shape {name} does not hold: {shape.paper}")
        print(f"shape {name} holds")


def _bench(root: Path, *flags: str) -> dict:
    """Run ``benchmarks/bench_campaign.py`` and return its artifact,
    written to the row's own ``bench.json``."""
    out = root / "bench.json"
    argv = [sys.executable, "benchmarks/bench_campaign.py", *flags, "--out", str(out)]
    _require(subprocess.run(argv).returncode == 0, f"{' '.join(argv)} failed")
    return _load(out)


def _json_output(main: Callable[[list[str]], int], argv: list[str]) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _require(main(argv) == 0, f"{' '.join(argv)} failed")
    return json.loads(buffer.getvalue())


def _sweep_in_manifest(section: str, experiment_id: str) -> Callable[[Path], None]:
    """The manifest records the sweep exactly as the results hold it."""

    def check(root: Path) -> None:
        results = _load(root / "results.json")
        _require(results["manifest"][section]
                 == results["experiments"][experiment_id]["data"],
                 f"manifest {section} differs from the {experiment_id} data")

    return check


def _cdn_check(root: Path) -> None:
    manifest = _load(root / "results.json")["manifest"]
    cls = manifest["classifiers"]
    _require(cls["entries"] > 0 and 0.0 <= cls["disagreement_rate"] <= 1.0,
             f"classifier section {cls}")
    c = manifest["counters"]["counters"]
    _require(c["economics.egress_bytes"]
             == c["economics.cache_served_bytes"] + c.get("economics.transfer_bytes", 0),
             f"economics counters do not conserve bytes: {c}")
    _require(c["cache.hits.edge"] > 0, "no edge-tier cache hit")
    print(f"classifier disagreement {cls['disagreement_rate']:.1%}, egress conserved")


def _har_vs_trace(root: Path) -> None:
    _require(har_vs_trace.main(["--sites", "6", "--pages", "4", "--seed", "7"]) == 0,
             "HAR timings disagree with the qlog traces")


def _store_check(root: Path) -> None:
    cold, warm = _load(root / "cold/results.json"), _load(root / "warm/results.json")
    _require(cold["experiments"] == warm["experiments"], "warm replay diverged")
    sa, sb = cold["manifest"]["store"]["stats"], warm["manifest"]["store"]["stats"]
    _require(sa["hits"] == 0 and sa["misses"] > 0, f"cold run stats {sa}")
    _require(sb["misses"] == 0 and sb["hit_rate"] == 1.0, f"warm run stats {sb}")
    store = str(root / "st")
    before = _json_output(store_cli.main, ["stats", store, "--json"])
    _require(store_cli.main(["gc", store]) == 0, "store gc failed")
    _require(store_cli.main(["verify", store]) == 0, "store verify found problems")
    after = _json_output(store_cli.main, ["stats", store, "--json"])
    _require(before["entries"] > 0 and before["entries"] == after["entries"],
             f"gc pruned reachable entries: {before['entries']} -> {after['entries']}")
    print(f"warm run 100% hits, output identical; gc kept all {after['entries']} entries")


def _obs_check(root: Path) -> None:
    _require(export.main(["qlog", str(root / "trace.jsonl"),
                          "-o", str(root / "trace.qlog")]) == 0, "qlog export failed")
    _require(export.main(["perfetto", str(root / "spans.jsonl"),
                          "-o", str(root / "perfetto.json")]) == 0, "perfetto export failed")
    q = _load(root / "trace.qlog")
    _require(q["qlog_version"] == "0.3", f"qlog_version {q['qlog_version']}")
    _require(q["qlog_format"] == "JSON" and bool(q["traces"]), "qlog fields missing")
    t = q["traces"][0]
    _require("vantage_point" in t and "common_fields" in t and bool(t["events"]),
             f"qlog trace fields {sorted(t)}")
    xs = [e for e in _load(root / "perfetto.json")["traceEvents"] if e.get("ph") == "X"]
    _require(bool(xs) and all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in xs),
             "bad Perfetto trace events")
    m = _load(root / "run.json")
    missing = [k for k in ("metrics", "spans", "progress", "loop_profile") if k not in m]
    _require(not missing, f"manifest sections missing: {missing}")
    _require(m["metrics"]["records"] > 0 and m["spans"]["records"] > 0,
             "no metrics or span records")
    # Sampler cost from the paired estimator.  Noise only ever inflates
    # CPU time, so each gate reads the smaller of two estimators; the
    # off-vs-off canary runs identical code on both sides, so whatever
    # it reads is host noise, and its 2% bound doubles as the
    # disabled-path overhead this host can certify.
    b = _bench(root, "--pages", "6", "--sites", "8",
               "--repeats", "5", "--sections", "metrics")["metrics_sampler"]
    on = min(b["overhead_cpu_pct"], b["overhead_cpu_pct_paired"])
    _require(on < 15.0, f"sampler-on CPU overhead {on:.1f}% breaches the 15% ceiling")
    canary = min(abs(b["disabled_canary_pct"]), abs(b["disabled_canary_minmin_pct"]))
    _require(canary < 2.0, f"off-vs-off canary {canary:.1f}% outside the 2% bound")
    _require(b["fingerprint_identical"] is True, "sampling changed the results")
    print(f"sampler {on:+.1f}% cpu, canary {canary:.1f}%, results identical")


def _stream_check(root: Path) -> None:
    # Peak RSS of a 2048-page summary-only campaign against a 256-page
    # one, each in its own subprocess (ru_maxrss is a lifetime maximum).
    m = _bench(root, "--pages", "4", "--sites", "6",
               "--sections", "memory")["streaming_memory"]
    ratio = m["rss_growth_ratio"]
    _require(ratio < 1.15, f"peak RSS grew {ratio:.3f}x between page counts")
    print(f"peak RSS {m['rss_small_kb'] // 1024} MB ({m['pages_small']} pages) -> "
          f"{m['rss_large_kb'] // 1024} MB ({m['pages_large']} pages), "
          f"growth {ratio:.3f}x < 1.15x")


def _bench_check(root: Path) -> None:
    # The tracer gate reads the smaller of the cross-round min/min and
    # the paired within-round estimators, as the sampler gate does; its
    # 35% ceiling is wider than the <20% reference-scale bar because ~1 s
    # runs on shared hosts carry tens of percent of CPU-time noise.
    b = _bench(root, "--pages", "8", "--sites", "8",
               "--workers", "2", "--repeats", "5",
               "--sections", "parallel,tracing,fastpath,store,substrate")
    kern = b["substrate"]["kernel_events_per_sec"]
    _require(kern > 300_000, f"kernel floor: {kern:,.0f} events/s < 300k")
    tr = min(b["tracing"]["overhead_cpu_pct"], b["tracing"]["overhead_cpu_pct_paired"])
    _require(tr < 35.0, f"tracer-on CPU overhead {tr:.1f}% breaches the 35% ceiling")
    fp = b["fast_path"]
    _require(bool(fp["cpu_speedup"]) and fp["cpu_speedup"] > 1.0, f"fast path {fp}")
    _require(fp["plt_worst_rel_delta_pct"] < 0.1, f"fast path {fp}")
    print(f"kernel {kern:,.0f} ev/s, tracing {tr:+.1f}% cpu, fast path "
          f"x{fp['cpu_speedup']:.2f} ({fp['plt_identical']}/{fp['visits']} PLTs identical)")


#: Row name -> row, in the order CI runs them.
ROWS: dict[str, Row] = {
    "trace": Row(
        "A traced campaign exports schema-valid telemetry and a run manifest.",
        (Run("table2", ("--counters",)),),
    ),
    "faults": Row(
        "Full UDP blackholing exports fault and recovery events, and the "
        "fallback sweep's rate rises monotonically.",
        (Run("table2,fig-fallback", ("--faults", "udp-blocked", "--counters"),
             shapes=("fig-fallback.monotone_fallback",),
             events=("fault:udp_blackhole", "recovery:h3_fallback")),),
        _sweep_in_manifest("fallback_sweep", "fig-fallback"),
    ),
    "proxy": Row(
        "Under --strict, a MASQUE relay lets QUIC migrate while a CONNECT "
        "tunnel downgrades H3 and erases the migration edge.",
        (
            Run("table2,fig-migration",
                ("--proxy", "masque-relay", "--faults", "nat-rebind", "--strict",
                 "--counters"),
                shapes=("fig-migration.tunnel_erases_migration_edge",
                        "fig-migration.tunnel_downgrades_h3"),
                events=("migration:migrated", "migration:reconnect")),
            Run("table2", ("--proxy", "connect-tunnel", "--faults", "nat-rebind",
                           "--strict"),
                out="tunnel", events=("proxy:h3_downgrade",),
                no_events=("migration:migrated",)),
        ),
        _sweep_in_manifest("migration_sweep", "fig-migration"),
    ),
    "cdn": Row(
        "A tier hierarchy under the full amplification attack conserves the "
        "provider's bytes, classifies entries and amplifies egress.",
        (Run("table2,fig-amplification",
             ("--cache-tiers", "edge-regional", "--compression", "1.0", "--strict",
              "--counters"),
             shapes=("fig-amplification.amplification_exceeds_unity",
                     "fig-amplification.amplification_monotone"),
             events=("cache:hit", "economics:egress")),),
        _cdn_check,
    ),
    "check": Row(
        "Experiments run clean under --strict, and HAR timings agree with "
        "the qlog traces.",
        (Run("fig2,fig-fallback", ("--strict",), trace=False),),
        _har_vs_trace,
    ),
    "store": Row(
        "A warm rerun against one store replays every visit with identical "
        "output, and gc, verify and stats keep the store whole.",
        tuple(Run("table2,fig8", ("--store", "{root}/st", "--run", "smoke"),
                  out=out, trace=False) for out in ("cold", "warm")),
        _store_check,
    ),
    "obs": Row(
        "Metrics, spans, loop profile and progress export and convert to "
        "qlog and Perfetto, and the metrics sampler stays cheap.",
        (Run("table2", ("--counters", "--metrics-interval", "5", "--spans",
                        "--profile", "--progress")),),
        _obs_check,
    ),
    "stream": Row(
        "A summary-only streaming campaign keeps peak memory flat in its "
        "page count.",
        check=_stream_check,
    ),
    "bench": Row(
        "The event kernel clears its throughput floor, tracing stays under "
        "its CPU ceiling, and the analytic fast path is faster and exact.",
        check=_bench_check,
    ),
}


def run_row(name: str) -> None:
    """Run one row into a clean ``.smoke/<name>/``; raise on a failure."""
    row = ROWS[name]
    print(f"== {name}-smoke: {row.why}")
    root = Path(".smoke") / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    for run in row.runs:
        _execute(run, root)
    if row.check is not None:
        row.check(root)
    print(f"{name}-smoke: ok")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0] not in ROWS:
        print(f"usage: python -m repro.smoke ROW; rows: {', '.join(ROWS)}",
              file=sys.stderr)
        return 2
    try:
        run_row(args[0])
    except SmokeFailure as failure:
        print(f"{args[0]}-smoke: FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
