"""Command-line entry point: ``repro-h3cdn``.

Examples
--------
Run everything at a quick scale::

    repro-h3cdn --scale quick

Reproduce the paper's Table II and Fig. 9 at full scale::

    repro-h3cdn --scale full --experiments table2,fig9
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.cdn.hierarchy import HIERARCHY_PRESETS
from repro.core.study import H3CdnStudy, StudyConfig
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.faults import FAULT_PROFILES
from repro.netsim.proxy import PROXY_MODELS
from repro.obs import build_run_manifest, write_run_manifest
from repro.scenario import Scenario

#: Predefined scales: (sites, campaign pages, consecutive pages,
#: loss-sweep pages, loss repetitions).
SCALES = {
    "smoke": (12, 12, 12, 6, 1),
    "quick": (60, 60, 60, 25, 1),
    "medium": (150, 150, 150, 60, 2),
    "full": (325, None, None, 120, 3),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-h3cdn",
        description=(
            "Reproduce the tables and figures of 'Dissecting the Applicability "
            "of HTTP/3 in Content Delivery Networks' (ICDCS 2024) on a "
            "simulated web/CDN universe."
        ),
    )
    parser.add_argument(
        "--experiments",
        default="all",
        help="comma-separated experiment ids (default: all): "
        + ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="predefined study scale (default: quick)",
    )
    parser.add_argument("--sites", type=int, help="override number of sites")
    parser.add_argument("--seed", type=int, default=7, help="study seed (default 7)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the campaign and every sweep "
        "(default 1 = in-process; results are identical for any value)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render ASCII charts of each figure's series",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write every experiment's raw data (plus the run manifest) "
        "as machine-readable JSON to PATH",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="enable qlog-style connection tracing and write trace.jsonl "
        "plus a run.json manifest into DIR",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="collect the campaign counter registry and print merged totals",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        metavar="MS",
        help="sample transport/link metrics (cwnd, in-flight, sRTT, "
        "goodput, queue depth) every MS of simulated time; with "
        "--trace-dir the samples land in metrics.jsonl "
        "(results are bit-identical with or without sampling)",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="record hierarchical visit/phase/transfer spans; with "
        "--trace-dir they land in spans.jsonl (Perfetto-exportable "
        "via python -m repro.obs.export)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile event-loop callbacks (wall-clock) and record the "
        "top entries in the run manifest",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live progress heartbeats to stderr while campaigns "
        "run and record the summary in the run manifest",
    )
    parser.add_argument(
        "--faults",
        choices=sorted(FAULT_PROFILES),
        help="apply a named fault profile to every campaign "
        "(default: no faults — results are bit-identical to fault-free builds)",
    )
    parser.add_argument(
        "--proxy",
        choices=PROXY_MODELS,
        help="route every campaign path through a proxy hop: "
        "connect-tunnel (TCP-terminating CONNECT proxy; H3 downgrades "
        "to H2 at the proxy) or masque-relay (UDP relay; QUIC passes "
        "through end-to-end)",
    )
    parser.add_argument(
        "--cache-tiers",
        choices=sorted(HIERARCHY_PRESETS),
        help="layer every edge's cache into a tier chain "
        "(edge-regional or edge-metro-regional); default is the flat "
        "per-edge LRU",
    )
    parser.add_argument(
        "--compression",
        type=float,
        metavar="RATIO",
        help="enable compression negotiation on every edge; RATIO is "
        "the fraction of clients demanding identity encoding "
        "(0 = everyone accepts Brotli, 1 = the full Lin et al. "
        "amplification attack)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="run every visit under the repro.check invariant checker; "
        "the first violation aborts the run (results are identical "
        "with or without --strict)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="attach a persistent result store at DIR: visits already "
        "stored are replayed bit-identically instead of re-simulated, "
        "fresh visits are journaled as they complete "
        "(inspect with `python -m repro.store`)",
    )
    parser.add_argument(
        "--run",
        metavar="NAME",
        help="base run name recorded in the store (default: the scale "
        "name); each experiment stage appends its own suffix",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --store: continue an interrupted run of the same "
        "name, executing only the visits its journal is missing",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="ignore --store (escape hatch for scripts that always "
        "pass one); results are bit-identical either way",
    )
    parser.add_argument(
        "--stream-pages",
        type=int,
        metavar="N",
        help="instead of the experiment suite, run a constant-memory "
        "streaming campaign over the first N pages of a lazily "
        "generated universe (pages materialize on demand; outcomes "
        "fold into a summary instead of accumulating) and print the "
        "folded report; honours --sites/--seed/--workers/--store "
        "(memory stays flat in N — try N far beyond --sites' default)",
    )
    return parser


def render_plots(result) -> list[str]:
    """ASCII charts for the figure series a result carries (if any).

    Degrades gracefully: a series key holding empty data (possible at
    tiny scales where e.g. no page uses 3+ providers) is skipped with a
    note instead of raising from the plotting primitives.
    """
    from repro.analysis.textplot import bar_chart, line_chart

    data = result.data
    lines: list[str] = []

    def skipped(key: str) -> list[str]:
        return [f"  [plot skipped: {key} is empty]"]

    if "ccdf_series" in data:
        if data["ccdf_series"]:
            lines += line_chart({"CCDF": data["ccdf_series"]},
                                x_label="CDN share", y_label="P(X>x)")
        else:
            lines += skipped("ccdf_series")
    if "phase_cdf_series" in data:
        populated = {k: v for k, v in data["phase_cdf_series"].items() if v}
        if populated:
            lines += line_chart(populated,
                                x_label="reduction (ms)", y_label="CDF")
        else:
            lines += skipped("phase_cdf_series")
    if "group_reductions" in data:
        if data["group_reductions"]:
            lines += bar_chart(data["group_reductions"], unit="ms")
        else:
            lines += skipped("group_reductions")
    if "plt_reduction_by_providers" in data:
        if data["plt_reduction_by_providers"]:
            lines += bar_chart(
                {f"{k} providers": v
                 for k, v in data["plt_reduction_by_providers"].items()},
                unit="ms",
            )
        else:
            lines += skipped("plt_reduction_by_providers")
        if data.get("resumed_by_providers"):
            lines += bar_chart(
                {f"{k} providers": v
                 for k, v in data["resumed_by_providers"].items()},
                unit=" resumed",
            )
        else:
            lines += skipped("resumed_by_providers")
    if "points" in data and isinstance(data["points"], dict):
        series = {
            f"{rate:.1%} loss": points
            for rate, points in data["points"].items()
            if points
        }
        if series:
            lines += line_chart(series, x_label="#CDN resources",
                                y_label="PLT reduction (ms)")
        else:
            lines += skipped("points")
    return lines


def _scenario(args: argparse.Namespace) -> Scenario:
    """The paper-default scenario with the run-condition flags applied."""
    scenario = Scenario(name="paper-default")
    if getattr(args, "faults", None):
        scenario = scenario.with_faults(args.faults)
    if getattr(args, "proxy", None):
        scenario = scenario.with_proxy(args.proxy)
    if getattr(args, "cache_tiers", None):
        scenario = scenario.with_cache_tiers(args.cache_tiers)
    if getattr(args, "compression", None) is not None:
        scenario = scenario.with_compression(args.compression)
    if getattr(args, "strict", False):
        scenario = scenario.with_strict()
    return scenario


def make_study(args: argparse.Namespace, store=None) -> H3CdnStudy:
    sites, campaign_pages, consecutive_pages, loss_pages, loss_reps = SCALES[args.scale]
    if args.sites is not None:
        sites = args.sites
    trace = bool(getattr(args, "trace_dir", None))
    collect = trace or bool(getattr(args, "counters", False) or
                            getattr(args, "json", None))
    return H3CdnStudy(
        StudyConfig(
            n_sites=sites,
            seed=args.seed,
            campaign_config=_scenario(args).campaign_config(
                collect_counters=collect,
                trace=trace,
                metrics_interval_ms=getattr(args, "metrics_interval", None),
                spans=bool(getattr(args, "spans", False)),
                profile_loop=bool(getattr(args, "profile", False)),
                progress=bool(getattr(args, "progress", False)),
            ),
            max_campaign_pages=campaign_pages,
            max_consecutive_pages=consecutive_pages,
            max_loss_sweep_pages=loss_pages,
            loss_sweep_repetitions=loss_reps,
            workers=args.workers,
            store=store,
            run_name=getattr(args, "run", None) or args.scale,
            resume=bool(getattr(args, "resume", False)),
        )
    )


def run_streaming(args: argparse.Namespace) -> int:
    """``--stream-pages N``: a summary-only campaign over a lazy universe."""
    from repro.measurement.executor import CampaignPlan, execute
    from repro.measurement.report import campaign_report
    from repro.web.topsites import GeneratorConfig, lazy_universe

    n_pages = args.stream_pages
    sites = args.sites if args.sites is not None else max(
        n_pages, SCALES[args.scale][0]
    )
    if n_pages > sites:
        print(
            f"--stream-pages {n_pages} exceeds the universe's {sites} sites",
            file=sys.stderr,
        )
        return 2
    config = _scenario(args).campaign_config(
        seed=args.seed,
        progress=bool(getattr(args, "progress", False)),
    )
    universe = lazy_universe(GeneratorConfig(n_sites=sites), seed=args.seed)
    store = None
    if args.store and not args.no_store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    print(
        f"# repro-h3cdn streaming pages={n_pages} sites={sites} "
        f"seed={args.seed} workers={args.workers}"
        + (f" store={args.store}" if store else "")
    )
    start = time.time()
    result = execute(CampaignPlan(
        universe=universe,
        sim=config,
        page_count=n_pages,
        workers=args.workers,
        summary_only=True,
        store=store,
        run_name=(getattr(args, "run", None) or f"stream-{n_pages}")
        if store
        else None,
        resume=bool(getattr(args, "resume", False)),
    ))
    wall_clock = time.time() - start
    print()
    print(campaign_report(result).render())
    summary = result.summary
    print(
        f"  fallback: {summary.fallback_fell_back}/{summary.fallback_eligible} "
        f"H3-eligible requests fell back ({summary.fallback_rate:.1%})"
    )
    if result.exec_stats:
        stats = result.exec_stats
        print(
            f"  executor: {stats['mode']} mode, "
            f"{stats['units_submitted']} units, "
            f"in-flight peak {stats['max_in_flight_seen']}, "
            f"reorder backlog peak {stats['max_ready_backlog']}"
        )
    print(f"  [{wall_clock:.1f}s]")
    if store is not None:
        store.close()
    return 0


def _jsonable(value):
    """Best-effort conversion of experiment data to JSON-safe values."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=repr)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return _jsonable(to_dict())
    if dataclasses.is_dataclass(value):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id, spec in EXPERIMENTS.items():
            print(f"{experiment_id:12s} {spec.title}")
        return 0
    if args.stream_pages is not None:
        return run_streaming(args)
    wanted = (
        list(EXPERIMENTS)
        if args.experiments == "all"
        else [item.strip() for item in args.experiments.split(",") if item.strip()]
    )
    unknown = [item for item in wanted if item not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    store = None
    if args.store and not args.no_store:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    study = make_study(args, store=store)
    print(
        f"# repro-h3cdn scale={args.scale} sites={study.config.n_sites} "
        f"seed={args.seed}"
        + (f" store={args.store} run={study.config.run_name}" if store else "")
    )
    experiment_records: list[dict] = []
    results: dict[str, object] = {}
    for experiment_id in wanted:
        start = time.time()
        result = run_experiment(experiment_id, study)
        wall_clock = time.time() - start
        experiment_records.append(
            {
                "id": experiment_id,
                "title": result.title,
                "wall_clock_s": round(wall_clock, 3),
            }
        )
        results[experiment_id] = result
        print()
        print(result.render())
        if args.plot:
            for line in render_plots(result):
                print(line)
        print(f"  [{wall_clock:.1f}s]")

    # -- observability exports ----------------------------------------
    campaign = study.campaign_result_or_none()
    totals = campaign.counter_totals() if campaign is not None else None
    counters_dict = totals.to_dict() if totals else None

    classifiers_section = None
    if campaign is not None:
        # Classifier realism check: how often the header-based
        # (LocEdge-style) and dictionary-based (detect_website_cdn-
        # style) classifiers disagree over this campaign's HAR entries.
        from repro.cdn.classifier import classifier_disagreement

        classifiers_section = classifier_disagreement(
            campaign.entries("h3-enabled")
        )

    store_section = None
    if store is not None:
        stats = store.stats
        print()
        print(
            f"== store: {stats.hits} hits / {stats.misses} misses "
            f"({stats.hit_rate:.0%} hit rate), {stats.resumed} resumed, "
            f"{stats.writes} written =="
        )
        store_section = {
            "path": args.store,
            "run_name": study.config.run_name,
            "resume": bool(args.resume),
            "stats": stats.to_dict(),
            "summary": store.stats_summary(),
        }
    if args.counters:
        print()
        print("== counters: merged campaign totals ==")
        if totals:
            for line in totals.render():
                print(line)
        else:
            print("  (no campaign counters collected — no experiment "
                  "materialized the paired campaign)")

    trace_files: list[str] = []
    metrics_section = None
    spans_section = None
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, "trace.jsonl")
        n_events = 0
        with open(trace_path, "w") as handle:
            if campaign is not None:
                for event in campaign.trace_events():
                    handle.write(json.dumps(event))
                    handle.write("\n")
                    n_events += 1
        trace_files.append("trace.jsonl")
        print(f"\nwrote {n_events} trace events to {trace_path}")
        if args.metrics_interval is not None:
            metrics_path = os.path.join(args.trace_dir, "metrics.jsonl")
            n_samples = 0
            with open(metrics_path, "w") as handle:
                if campaign is not None:
                    for record in campaign.metrics_events():
                        handle.write(json.dumps(record))
                        handle.write("\n")
                        n_samples += 1
            trace_files.append("metrics.jsonl")
            metrics_section = {
                "interval_ms": args.metrics_interval,
                "records": n_samples,
            }
            print(f"wrote {n_samples} metrics samples to {metrics_path}")
        if args.spans:
            spans_path = os.path.join(args.trace_dir, "spans.jsonl")
            n_spans = 0
            with open(spans_path, "w") as handle:
                # One synthetic campaign root span: sim clocks restart
                # per visit, so its extent is wall-clock only.
                root = {
                    "id": 1,
                    "parent": None,
                    "kind": "campaign",
                    "name": f"{args.scale}:{study.config.run_name}",
                    "t0": 0.0,
                    "t1": 0.0,
                    "wall_ms": round(
                        1000.0 * sum(
                            e.get("wall_clock_s", 0.0)
                            for e in experiment_records
                        ),
                        3,
                    ),
                }
                handle.write(json.dumps(root))
                handle.write("\n")
                n_spans += 1
                if campaign is not None:
                    for record in campaign.span_records():
                        handle.write(json.dumps(record))
                        handle.write("\n")
                        n_spans += 1
            trace_files.append("spans.jsonl")
            spans_section = {"records": n_spans}
            print(f"wrote {n_spans} spans to {spans_path}")

    progress_section = (
        dict(campaign.progress)
        if campaign is not None and campaign.progress is not None
        else None
    )
    profile_section = None
    if args.profile and campaign is not None and campaign.loop_profile:
        # Top callbacks by cumulative wall-clock (profile_stats order).
        profile_section = dict(list(campaign.loop_profile.items())[:25])
        print()
        print("== loop profile: top callbacks by cumulative wall-clock ==")
        for name, entry in list(campaign.loop_profile.items())[:10]:
            print(
                f"  {entry['total_ms']:10.1f} ms  {entry['count']:>9d}×  {name}"
            )

    if args.trace_dir or args.json:
        from repro.store.keys import campaign_config_hash

        manifest = build_run_manifest(
            invocation={
                "argv": list(argv) if argv is not None else sys.argv[1:],
                "scale": args.scale,
                "sites": study.config.n_sites,
                "seed": args.seed,
                "workers": args.workers,
                "experiments": wanted,
                "counters": bool(args.counters),
                "trace": bool(args.trace_dir),
                "faults": args.faults,
                "proxy": args.proxy,
                "cache_tiers": args.cache_tiers,
                "compression": args.compression,
                "strict": bool(args.strict),
                "metrics_interval_ms": args.metrics_interval,
                "spans": bool(args.spans),
                "profile": bool(args.profile),
                "progress": bool(args.progress),
            },
            experiments=experiment_records,
            counters=counters_dict,
            trace_files=trace_files,
            fallback_sweep=(
                _jsonable(results["fig-fallback"].data)
                if "fig-fallback" in results
                else None
            ),
            migration_sweep=(
                _jsonable(results["fig-migration"].data)
                if "fig-migration" in results
                else None
            ),
            config_hash=campaign_config_hash(study.config.campaign_config),
            store=store_section,
            classifiers=classifiers_section,
            metrics=metrics_section,
            spans=spans_section,
            progress=progress_section,
            loop_profile=profile_section,
        )
        if args.trace_dir:
            manifest_path = os.path.join(args.trace_dir, "run.json")
            write_run_manifest(manifest_path, manifest)
            print(f"wrote run manifest to {manifest_path}")
        if args.json:
            payload = {
                "format": "repro-h3cdn-results/1",
                "manifest": manifest,
                "experiments": {
                    experiment_id: {
                        "title": result.title,
                        "data": _jsonable(result.data),
                    }
                    for experiment_id, result in results.items()
                },
            }
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"wrote results JSON to {args.json}")
    if store is not None:
        store.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
