PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stacked test-async test-concurrent test-capture test-kernels test-bench-harness lint bench bench-smoke bench-e2e

test: lint
	$(PYTHON) -m pytest -x -q

# Just the stacked-client replay executor and its compiler.
test-stacked:
	$(PYTHON) -m pytest -x -q -m stacked

# Just the virtual-clock async engine and lazy-population layer.
test-async:
	$(PYTHON) -m pytest -x -q -m async

# Just the crash-safety suite: racing saves, SIGKILLed workers, stale
# claims, parallel-vs-serial store identity.
test-concurrent:
	$(PYTHON) -m pytest -x -q -m concurrent

# Just the capture-engine optimizer: arena planner, constant interning,
# optimized-vs-eager bitwise differentials, and the build cache.
test-capture:
	$(PYTHON) -m pytest -x -q -m capture

# Just the array kernels: hypothesis oracles against the reference
# formulations, the same-bits gate over four SMOKE cells, and the
# eager/compiled/stacked op table (< 30 s).
test-kernels:
	$(PYTHON) -m pytest -x -q -m kernels

# The end-to-end benchmark harness's self-test (not part of tier-1: it
# runs every workload at reduced size in fresh interpreters, < 60 s).
test-bench-harness:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Uses ruff or pyflakes when installed; otherwise a stdlib AST fallback.
lint:
	$(PYTHON) tools/lint.py src tests

bench:
	$(PYTHON) -m repro.experiments.bench --output BENCH_core.json

# Seconds-scale sanity pass over every bench section; deliberately not
# part of `make test` — it proves the benchmarks run, not the numbers.
# Also guards the hot-path wall times against the committed baseline.
bench-smoke:
	$(PYTHON) -m repro.experiments.bench --smoke --output BENCH_smoke.json --check-baseline BENCH_core.json

# The end-to-end benchmark of BENCHMARK.json: four paper workloads, each
# in a fresh interpreter, end-to-end metrics plus a per-layer trace.
bench-e2e:
	python3 benchmarks/e2e/run.py
