# Developer entry points. The container has no ruff/flake8; `lint` runs
# the repo's own AST-based checker, `staticcheck` (lock-discipline,
# blocking-while-locked, determinism, error-taxonomy, dead imports and
# stale exports; docs/staticcheck.md), and falls through to ruff when
# one is installed. `test` runs lint first so dead imports fail fast.
# `bench`/`bench-quick` go through the scenario registry (`repro bench`,
# docs/benchmarks.md); `ci` mirrors the GitHub Actions workflow's
# stages: staticcheck, tier-1 tests, doc check, end-to-end benchmark
# self-test, HTTP smoke, quick bench smoke, and the regression guard
# against the committed baselines.

PYTHON ?= python
BENCH_OUT ?= .
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint staticcheck check-docs test test-slow bench bench-quick bench-baselines ci serve example-batch

lint: staticcheck
	@command -v ruff >/dev/null 2>&1 && ruff check src tests benchmarks examples tools || true

# The static-analysis gate: concurrency, determinism, error-taxonomy
# and dead-import rules with the committed baseline.
staticcheck:
	$(PYTHON) tools/staticcheck --jobs 0

# Intra-repo markdown links must resolve; fenced python doc blocks
# must compile (README.md + docs/, see tools/check_docs.py).
check-docs:
	$(PYTHON) tools/check_docs.py

test: lint
	$(PYTHON) -m pytest -x -q

test-slow:
	$(PYTHON) -m pytest -x -q -m slow

# Both bench targets end in the regression guard so their exit code
# means something: green = every metric inside its band vs the
# committed baselines for that tier. Stale per-scenario artifacts are
# deleted first (file-targeted, so BENCH_OUT=. is safe): `repro bench`
# only overwrites files for scenarios it ran, and a leftover
# BENCH_<renamed>.json would otherwise mask a missing-scenario
# regression. BENCH_summary.json is spared — it is the append-only
# trajectory.
bench:
	find $(BENCH_OUT) -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_summary.json' -delete 2>/dev/null || true
	$(PYTHON) -m repro bench --full --output-dir $(BENCH_OUT)
	$(PYTHON) tools/benchguard.py --results $(BENCH_OUT) --tier full

bench-quick:
	find $(BENCH_OUT) -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_summary.json' -delete 2>/dev/null || true
	$(PYTHON) -m repro bench --quick --output-dir $(BENCH_OUT)
	$(PYTHON) tools/benchguard.py --results $(BENCH_OUT) --tier quick

# Refresh the committed baselines after an intentional perf/fidelity
# change (commit the resulting diff under benchmarks/baselines/). The
# scratch dirs are wiped first: `repro bench` only overwrites files for
# scenarios it ran, so a stale artifact from a renamed/removed scenario
# would otherwise be baselined as a phantom.
bench-baselines:
	rm -rf /tmp/bench-quick-baseline /tmp/bench-full-baseline
	rm -rf benchmarks/baselines/quick benchmarks/baselines/full
	$(PYTHON) -m repro bench --quick --output-dir /tmp/bench-quick-baseline
	$(PYTHON) tools/benchguard.py --results /tmp/bench-quick-baseline --tier quick --update
	$(PYTHON) -m repro bench --full --output-dir /tmp/bench-full-baseline
	$(PYTHON) tools/benchguard.py --results /tmp/bench-full-baseline --tier full --update

# A fresh directory per run: the guard must never be satisfied by a
# stale BENCH_*.json from a previous invocation. The e2ebench self-test
# runs every end-to-end workload at a tiny size (e2ebench/). The HTTP
# smoke boots `repro serve` on an ephemeral port and drives it from a
# second process (tools/http_smoke.py).
ci: staticcheck test check-docs
	$(PYTHON) -m unittest discover -s e2ebench
	$(PYTHON) tools/http_smoke.py
	rm -rf bench-artifacts
	$(PYTHON) -m repro bench --quick --output-dir bench-artifacts
	$(PYTHON) tools/benchguard.py --results bench-artifacts --tier quick

serve:
	$(PYTHON) -m repro serve --port 8080

example-batch:
	$(PYTHON) examples/batch_service.py
