PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench-smoke bench-digests lint trace-smoke faults-smoke check-smoke store-smoke obs-smoke stream-smoke proxy-smoke cdn-smoke

# Tier-1 suite. tests/test_parallel.py runs 2- and 4-worker campaigns
# against the serial baseline, so the parallel path is exercised on
# every `make test` and cannot rot silently.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Quick perf sanity: a small campaign (parallel cross-check when ≥2
# CPUs are available), substrate events/sec for every built kernel,
# tracing overhead and the analytic fast path — then hard gates:
# the default kernel must clear 300k chained events/s and tracer-on
# CPU overhead must stay under 35%.  The overhead gate takes the
# SMALLER of the artifact's two estimators (cross-round min/min and
# paired within-round median): host interference only ever inflates
# CPU time and hits the two estimators independently, while a real
# regression (the pre-optimization tracer cost +77%) inflates both.
# The smoke ceiling is wider than the documented <20% reference-scale
# bar (recorded in BENCH_campaign.json, measured over longer runs)
# because ~1 s smoke runs on shared hosts carry tens-of-percent
# CPU-time noise even after pairing.  Numbers come from the artifact,
# so the gate and the record can never disagree.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_campaign.py \
		--pages 8 --sites 8 --workers 2 --repeats 5 \
		--sections parallel,tracing,fastpath,store,substrate \
		--out BENCH_campaign_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; b = json.load(open('BENCH_campaign_smoke.json')); \
	kern = b['substrate']['kernel_events_per_sec']; \
	assert kern > 300_000, f'kernel floor: {kern:,.0f} events/s < 300k'; \
	tr = min(b['tracing']['overhead_cpu_pct'], \
	         b['tracing']['overhead_cpu_pct_paired']); \
	assert tr < 35.0, f'tracer-on CPU overhead {tr:.1f}%% breaches the 35%% ceiling'; \
	fp = b['fast_path']; \
	assert fp['cpu_speedup'] and fp['cpu_speedup'] > 1.0, fp; \
	assert fp['plt_worst_rel_delta_pct'] < 0.1, fp; \
	print(f\"bench-smoke: kernel {kern:,.0f} ev/s, \" \
	      f\"tracing {tr:+.1f}%% cpu (gated estimate), fast path \" \
	      f\"x{fp['cpu_speedup']:.2f} \" \
	      f\"({fp['plt_identical']}/{fp['visits']} PLTs identical)\")"

# Result-digest gate for the repo benchmark (benchmarks/harness): one
# short untraced run of every workload BENCHMARK.json names, at the
# pinned seed.  run.py exits non-zero on any failed check — a moved
# pinned digest, workers=1 != workers=N, or a warm replay that differs
# from its cold run — and the loop stops at the first failure.  An
# empty workload list (BENCHMARK.json unreadable) fails the target
# rather than passing with nothing checked.
BENCH_WORKLOADS = $(shell $(PYTHON) -c "import json; \
	print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

bench-digests:
	test -n "$(BENCH_WORKLOADS)" || { echo "bench-digests: no workloads read from BENCHMARK.json" >&2; exit 1; }
	for w in $(BENCH_WORKLOADS); do \
		$(PYTHON) benchmarks/harness/run.py --workload $$w --seed 11 \
			--seconds 1 --setup-samples 1 --trace 0 || exit 1; \
	done

# Observability smoke: run a traced smoke campaign, then validate the
# exported JSONL trace against the schema and check the manifest exists.
trace-smoke:
	rm -rf .trace_smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2 --counters \
		--trace-dir .trace_smoke --json .trace_smoke/results.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.schema .trace_smoke/trace.jsonl
	test -f .trace_smoke/run.json

# Fault-injection smoke: run a campaign under full UDP blackholing plus
# the fallback sweep, validate the trace (fault:/recovery: events) and
# check the manifest records the sweep.
faults-smoke:
	rm -rf .faults_smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2,fig-fallback \
		--faults udp-blocked --counters \
		--trace-dir .faults_smoke --json .faults_smoke/results.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.schema .faults_smoke/trace.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; m = json.load(open('.faults_smoke/run.json')); \
	assert m['invocation']['faults'] == 'udp-blocked', m['invocation']; \
	sweep = m['fallback_sweep']; \
	assert sweep['monotone_fallback'] is True, sweep; \
	print('faults-smoke: manifest ok,', len(sweep['fallback_rates']), 'sweep points')"

# Proxy/migration smoke: fig-migration at smoke scale under --strict
# (the CONNECT tunnel must erase the migration edge and downgrade all
# H3), plus one proxied main campaign per proxy model so both trace
# families — migration:* (masque relay, QUIC migrates / TCP
# reconnects) and proxy:* (connect tunnel, H3 downgraded) — land in
# trace.jsonl and validate against the obs schema.
proxy-smoke:
	rm -rf .proxy_smoke
	mkdir -p .proxy_smoke/tunnel
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2,fig-migration \
		--proxy masque-relay --faults nat-rebind --strict --counters \
		--trace-dir .proxy_smoke --json .proxy_smoke/results.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.schema .proxy_smoke/trace.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2 \
		--proxy connect-tunnel --faults nat-rebind --strict \
		--trace-dir .proxy_smoke/tunnel
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.schema .proxy_smoke/tunnel/trace.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; m = json.load(open('.proxy_smoke/run.json')); \
	assert m['invocation']['proxy'] == 'masque-relay', m['invocation']; \
	assert m['invocation']['strict'] is True, m['invocation']; \
	sweep = m['migration_sweep']; \
	assert sweep['tunnel_erases_migration_edge'] is True, sweep; \
	assert sweep['tunnel_downgrades_h3'] is True, sweep; \
	relay = {n for n in (json.loads(l)['name'] for l in open('.proxy_smoke/trace.jsonl'))}; \
	assert 'migration:migrated' in relay and 'migration:reconnect' in relay, sorted(relay); \
	tunnel = {n for n in (json.loads(l)['name'] for l in open('.proxy_smoke/tunnel/trace.jsonl'))}; \
	assert 'proxy:h3_downgrade' in tunnel and 'migration:migrated' not in tunnel, sorted(tunnel); \
	print('proxy-smoke: manifest ok,', len(sweep['cells']), 'sweep cells,', \
	      'migration/proxy trace families validated')"

# Cache-hierarchy smoke: the amplification scenario end to end under
# --strict.  Runs table2 (materializes a traced main campaign with a
# tier hierarchy + full-attack compression, so the cache:/economics:
# trace families land in trace.jsonl) plus fig-amplification, then
# gates: the egress/ingress factor must exceed 1 in every attack cell
# and be monotone in the identity-demand ratio (checked explicitly
# from the per-cell payloads, not just the experiment's own booleans),
# the economics conservation invariant must have held (strict mode
# would have aborted otherwise), the manifest must record the
# hierarchy flags and the classifier-disagreement realism section, and
# the new trace families must validate against the obs schema.
cdn-smoke:
	rm -rf .cdn_smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2,fig-amplification \
		--cache-tiers edge-regional --compression 1.0 --strict --counters \
		--trace-dir .cdn_smoke --json .cdn_smoke/results.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.schema .cdn_smoke/trace.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; r = json.load(open('.cdn_smoke/results.json')); \
	amp = r['experiments']['fig-amplification']['data']; \
	assert amp['amplification_exceeds_unity'] is True, amp; \
	assert amp['amplification_monotone'] is True, amp; \
	cells = sorted(amp['cells'].items(), key=lambda kv: float(kv[0].split('-', 1)[1])); \
	factors = [c['amplification'] for _, c in cells]; \
	assert all(f > 1.0 for _, f in zip(cells[1:], factors[1:])), factors; \
	assert all(a <= b + 1e-9 for a, b in zip(factors, factors[1:])), factors; \
	m = r['manifest']; \
	assert m['invocation']['cache_tiers'] == 'edge-regional', m['invocation']; \
	assert m['invocation']['compression'] == 1.0, m['invocation']; \
	assert m['invocation']['strict'] is True, m['invocation']; \
	cls = m['classifiers']; \
	assert cls['entries'] > 0 and 0.0 <= cls['disagreement_rate'] <= 1.0, cls; \
	c = m['counters']['counters']; \
	assert c['economics.egress_bytes'] == \
	    c['economics.cache_served_bytes'] + c.get('economics.transfer_bytes', 0), c; \
	assert c['cache.hits.edge'] > 0, c; \
	names = {json.loads(l)['name'] for l in open('.cdn_smoke/trace.jsonl')}; \
	wanted = {'cache:hit', 'economics:egress'}; \
	assert wanted <= names, sorted(wanted - names); \
	print(f\"cdn-smoke: amplification {' -> '.join(f'{f:.2f}' for f in factors)}, \" \
	      f\"classifier disagreement {cls['disagreement_rate']:.1%}, \" \
	      'cache/economics trace families validated')"

# Invariant-checking smoke: run experiments under --strict (any
# violation aborts with a non-zero exit), confirm the manifest records
# strict mode, then cross-check HAR timings against qlog traces with
# the differential validator.
check-smoke:
	rm -rf .check_smoke
	mkdir -p .check_smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments fig2,fig-fallback \
		--strict --json .check_smoke/results.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; m = json.load(open('.check_smoke/results.json'))['manifest']; \
	assert m['invocation']['strict'] is True, m['invocation']; \
	print('check-smoke: strict manifest ok')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.check.har_vs_trace \
		--sites 6 --pages 4 --seed 7

# Result-store smoke: the persistence contract end to end.
# 1. Run a campaign twice against one store; the second run must be
#    100% hits and its experiment output byte-identical to the first.
# 2. Simulate an interrupted campaign, --resume it, and check the
#    journal recovered the completed visits.
# 3. `python -m repro.store verify` must find the store clean.
store-smoke:
	rm -rf .store_smoke
	mkdir -p .store_smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2 \
		--store .store_smoke/st --run smoke --json .store_smoke/run1.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2 \
		--store .store_smoke/st --run smoke --json .store_smoke/run2.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; \
	a = json.load(open('.store_smoke/run1.json')); \
	b = json.load(open('.store_smoke/run2.json')); \
	assert a['experiments'] == b['experiments'], 'warm replay diverged'; \
	sa = a['manifest']['store']['stats']; sb = b['manifest']['store']['stats']; \
	assert sa['hits'] == 0 and sa['misses'] > 0, sa; \
	assert sb['misses'] == 0 and sb['hit_rate'] == 1.0, sb; \
	print('store-smoke: warm run 100%% hits, output bit-identical')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import repro.measurement.parallel as par; \
	from repro.measurement import CampaignConfig, CampaignPlan, execute; \
	from repro.store import ResultStore; \
	from repro.web.topsites import GeneratorConfig, cached_universe; \
	uni = cached_universe(GeneratorConfig(n_sites=6), seed=7); \
	pages = uni.pages[:4]; config = CampaignConfig(seed=3); \
	store = ResultStore('.store_smoke/st'); \
	real = par.measure_visit_outcome; calls = {'n': 0}; \
	exec('def flaky(*a, **k):\n calls[\"n\"] += 1\n if calls[\"n\"] > 2: raise KeyboardInterrupt\n return real(*a, **k)'); \
	par.measure_visit_outcome = flaky; \
	plan = CampaignPlan(uni, sim=config, pages=pages, store=store, run_name='interrupted'); \
	exec('try:\n execute(plan)\nexcept KeyboardInterrupt:\n pass'); \
	par.measure_visit_outcome = real; \
	assert not store.run_info('interrupted').complete; \
	assert store.run_info('interrupted').journaled == 2; \
	r = execute(CampaignPlan(uni, sim=config, pages=pages, store=store, run_name='interrupted', resume=True)); \
	assert r.store_stats.resumed == 2 and r.store_stats.misses == 2, r.store_stats; \
	assert store.run_info('interrupted').complete; store.close(); \
	print('store-smoke: interrupt/resume recovered 2 journaled visits')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.store verify .store_smoke/st
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.store stats .store_smoke/st

# Deep-telemetry smoke: the full observability stack end to end.
# 1. Run a smoke campaign with tracing, sim-time metrics sampling,
#    spans, loop profiling and live progress; schema-validate every
#    exported JSONL family (trace, metrics, spans).
# 2. Export qlog 0.3 (qvis) and Chrome trace-event JSON (Perfetto) and
#    check the required top-level fields of both formats.
# 3. Check the run manifest carries the metrics/spans/progress/
#    loop_profile sections.
# 4. Gate sampler cost from the benchmark's position-balanced paired
#    estimator: sampler-on CPU overhead must stay under 15% (smaller
#    of the two estimators, same rationale as bench-smoke), and the
#    off-vs-off canary — identical code on both sides, so anything it
#    reads is host noise — must sit within ±2%, which doubles as the
#    disabled-path overhead bound this host can certify.  The canary
#    gate reads the smaller of the paired-median and min/min forms:
#    shared hosts show warm-up drift and ±5% adjacent-run jitter that
#    can push any single estimator past 2% on ~0.7 s runs, but series
#    minima of identical work converge (noise only ever slows a run),
#    so at least one estimator reads ~0 unless the measurement itself
#    is broken.  The history lands in BENCH_campaign_obs.json.
obs-smoke:
	rm -rf .obs_smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli \
		--scale smoke --sites 6 --experiments table2 --counters \
		--trace-dir .obs_smoke --metrics-interval 5 --spans \
		--profile --progress --json .obs_smoke/results.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.schema \
		.obs_smoke/trace.jsonl .obs_smoke/metrics.jsonl .obs_smoke/spans.jsonl
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.export qlog \
		.obs_smoke/trace.jsonl -o .obs_smoke/trace.qlog
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.obs.export perfetto \
		.obs_smoke/spans.jsonl -o .obs_smoke/perfetto.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; q = json.load(open('.obs_smoke/trace.qlog')); \
	assert q['qlog_version'] == '0.3', q['qlog_version']; \
	assert q['qlog_format'] == 'JSON' and q['traces'], 'qlog fields missing'; \
	t = q['traces'][0]; \
	assert 'vantage_point' in t and 'common_fields' in t and t['events'], t.keys(); \
	p = json.load(open('.obs_smoke/perfetto.json')); \
	xs = [e for e in p['traceEvents'] if e.get('ph') == 'X']; \
	assert xs and all({'name','ts','dur','pid','tid'} <= set(e) for e in xs), 'bad trace events'; \
	m = json.load(open('.obs_smoke/run.json')); \
	missing = [k for k in ('metrics','spans','progress','loop_profile') if k not in m]; \
	assert not missing, f'manifest sections missing: {missing}'; \
	assert m['metrics']['records'] > 0 and m['spans']['records'] > 0, m; \
	print(f\"obs-smoke: qlog {len(q['traces'])} traces, \" \
	      f\"perfetto {len(xs)} spans, manifest sections ok\")"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_campaign.py \
		--pages 6 --sites 8 --repeats 5 --sections metrics \
		--out BENCH_campaign_obs.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; b = json.load(open('BENCH_campaign_obs.json')); \
	m = b['metrics_sampler']; \
	on = min(m['overhead_cpu_pct'], m['overhead_cpu_pct_paired']); \
	assert on < 15.0, f'sampler-on CPU overhead {on:.1f}%% breaches the 15%% ceiling'; \
	canary = min(abs(m['disabled_canary_pct']), \
	             abs(m['disabled_canary_minmin_pct'])); \
	assert canary < 2.0, f'off-vs-off canary {canary:.1f}%% outside the 2%% bound'; \
	assert m['fingerprint_identical'] is True, m; \
	print(f\"obs-smoke: sampler {on:+.1f}%% cpu (gated estimate), \" \
	      f\"canary {canary:.1f}%%, {m['samples']} samples, results identical\")"

# Streaming-executor smoke: the constant-memory campaign contract.
# 1. The summary folded while the campaign streams must be
#    field-identical to folding the materialized visits afterwards,
#    serial and pooled, and summary_only must drop the visits.
# 2. A lazily generated universe must agree with a larger one on every
#    shared page index (prefix identity).
# 3. Peak RSS of a 2048-page summary-only campaign must stay within
#    1.15x of a 256-page run — each point measured in its own
#    subprocess because ru_maxrss is a process-lifetime high-water
#    mark.  The ratio lands in BENCH_campaign_stream.json's history.
stream-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	from repro.measurement import CampaignConfig, CampaignPlan, execute; \
	from repro.measurement.summary import CampaignSummary; \
	from repro.web.topsites import GeneratorConfig, cached_universe, lazy_universe; \
	small = GeneratorConfig(n_sites=6, resources_per_page_median=12.0, \
	                        min_resources=5, max_resources=25); \
	uni = cached_universe(small, seed=21); \
	config = CampaignConfig(visits_per_page=1, max_vantage_points=2, seed=7); \
	serial = execute(CampaignPlan(universe=uni, sim=config)); \
	refold = CampaignSummary.from_result(serial, universe=uni); \
	assert serial.summary.to_dict() == refold.to_dict(), 'stream fold != materialized fold'; \
	pooled = execute(CampaignPlan(universe=uni, sim=config, workers=2, \
	                              chunk_size=1, summary_only=True)); \
	assert pooled.summary.to_dict() == serial.summary.to_dict(), 'pooled summary diverged'; \
	assert pooled.paired_visits == [], 'summary_only retained visits'; \
	lazy = lazy_universe(small, seed=21); \
	big = lazy_universe(GeneratorConfig(n_sites=64, resources_per_page_median=12.0, \
	                                    min_resources=5, max_resources=25), seed=21); \
	assert all(lazy.page_at(i) == big.page_at(i) for i in range(6)), \
	    'lazy prefix identity broken'; \
	print('stream-smoke: fold equivalence + lazy prefix identity ok')"
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_campaign.py \
		--pages 4 --sites 6 --sections memory \
		--out BENCH_campaign_stream.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "\
	import json; b = json.load(open('BENCH_campaign_stream.json')); \
	m = b['streaming_memory']; ratio = m['rss_growth_ratio']; \
	assert ratio < 1.15, f'peak RSS grew {ratio:.3f}x between page counts'; \
	print(f\"stream-smoke: peak RSS {m['rss_small_kb'] // 1024} MB \" \
	      f\"({m['pages_small']} pages) -> {m['rss_large_kb'] // 1024} MB \" \
	      f\"({m['pages_large']} pages), growth {ratio:.3f}x < 1.15x\")"

# No third-party linters in the container; bytecode compilation catches
# syntax errors and obvious breakage across the whole tree.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
