PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench-digests lint

# Tier-1 suite. tests/test_parallel.py runs 2- and 4-worker campaigns
# against the serial baseline, so the parallel path is exercised on
# every `make test` and cannot rot silently.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

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

# End-to-end smoke gates: `make trace-smoke` runs the `trace` row of
# src/repro/smoke.py, and so on for every row (`python -m repro.smoke`
# lists them).
%-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.smoke $*

# No third-party linters in the container; bytecode compilation catches
# syntax errors and obvious breakage across the whole tree.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
