# Developer and CI entry points. `make ci` is what a pipeline's main job
# should run: vet + lint + build + tests. The race detector has its own
# target (and its own CI job) so the slow instrumented run parallelizes
# with the fast gate instead of serializing behind it.

GO ?= go

.PHONY: all build test race bench vet lint loc ci bench-json perf-gate baseline trace-smoke sysmon-smoke slo-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the full tree. The parallel layer's tests (workers=1 vs
# workers=8 determinism, parallel portfolio, experiment suite runner) are
# the interesting part; everything else rides along for free.
race:
	$(GO) test -race ./...

# Benchmark the parallel kernels at workers=1 vs workers=GOMAXPROCS, the
# cluster simulator with span tracing off/on, plus the pre-existing
# hot-path micro-benchmarks. Override BENCHTIME (e.g. 1x in CI smoke).
BENCHTIME ?= 2x

bench:
	$(GO) test -bench 'Workers|ParallelPortfolio|ClusterSim' -benchtime $(BENCHTIME) -run '^$$' .

vet:
	$(GO) vet ./...

# Repository-specific static analysis (see internal/lint): nine analyzers
# enforce the determinism, observability and parallel-safety invariants
# that plain `go vet` cannot see. taclint runs standalone over the module
# — it does not use `go vet -vettool=`, because the vettool protocol
# requires golang.org/x/tools' unitchecker and this repo is deliberately
# dependency-free; the standalone run checks the same packages with the
# same type information. LINTFORMAT=sarif emits SARIF 2.1.0 for CI code
# annotations instead of the go-vet style text.
LINTFORMAT ?= text

lint:
	$(GO) run ./cmd/taclint -format $(LINTFORMAT) ./...

# Net line count, the metric the ROADMAP tracks for code size: Go lines
# in the root module, split into non-test and test files. perfbench/ is
# a separate module and testdata/ holds analyzer fixtures, so both are
# left out, as are hidden directories such as the bench build cache.
LOCFILES = find . -name '*.go' -not -path './perfbench/*' -not -path '*/testdata/*' -not -path './.*'

loc:
	@printf 'non-test go lines: %s\n' "$$($(LOCFILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'test go lines:     %s\n' "$$($(LOCFILES) -name '*_test.go' -exec cat {} + | wc -l)"

ci: vet lint build test

# Perf gate: run the fixed bench suite to JSON and diff it against the
# committed baseline with tacreport. Verdicts subtract the propagated
# 95% CI half-widths, so only a confident slowdown beyond GATE_PCT fails
# (tacreport exits 3). The Markdown report lands in BENCH_report.md
# whether the gate passes or not.
GATE_PCT ?= 20
BENCH_REPS ?= 5

bench-json:
	$(GO) run ./cmd/tacbench -json BENCH_results.json -quick -reps $(BENCH_REPS)

perf-gate: bench-json
	$(GO) run ./cmd/tacreport BENCH_baseline.json BENCH_results.json \
	  -fail-on-regression $(GATE_PCT) -o BENCH_report.md
	@echo "perf gate passed (threshold $(GATE_PCT)%); report in BENCH_report.md"

# Refresh the committed baseline. Run on the reference machine, then
# commit BENCH_baseline.json alongside the change that moved it.
baseline:
	$(GO) run ./cmd/tacbench -json BENCH_baseline.json -quick -reps $(BENCH_REPS)

# Trace smoke: a real tacsolve run exports a Chrome trace and archives
# trace.jsonl, tactrace -chrome strict-validates the export, and
# tacreport renders the phase-attribution table from the archive. The
# end-to-end counterpart of the in-process pipeline-tracing tests.
TRACE_DIR ?= /tmp/taccc-trace-smoke

trace-smoke:
	rm -rf $(TRACE_DIR)
	$(GO) run ./cmd/tacsolve -iot 80 -edge 8 -rho 0.8 -algo tabu -seed 7 \
	  -workers 4 -trace-out $(TRACE_DIR)/trace.json -archive $(TRACE_DIR)/run
	$(GO) run ./cmd/tactrace -chrome $(TRACE_DIR)/trace.json
	$(GO) run ./cmd/tacreport $(TRACE_DIR)/run -o $(TRACE_DIR)/report.md
	grep -q '^## Pipeline phases' $(TRACE_DIR)/report.md
	grep -q 'critical path:' $(TRACE_DIR)/report.md
	@echo "trace smoke passed; report in $(TRACE_DIR)/report.md"

# Sysmon smoke: the trace smoke with resource sampling on — the export
# must still strict-validate (now with counter tracks), the archive must
# carry resources.jsonl, and the report must grow the per-phase
# resource-attribution table next to the wall-time one.
SYSMON_DIR ?= /tmp/taccc-sysmon-smoke

sysmon-smoke:
	rm -rf $(SYSMON_DIR)
	$(GO) run ./cmd/tacsolve -iot 80 -edge 8 -rho 0.8 -algo tabu -seed 7 \
	  -workers 4 -sysmon -sysmon-interval 25ms \
	  -trace-out $(SYSMON_DIR)/trace.json -archive $(SYSMON_DIR)/run
	$(GO) run ./cmd/tactrace -chrome $(SYSMON_DIR)/trace.json
	test -s $(SYSMON_DIR)/run/resources.jsonl
	$(GO) run ./cmd/tacreport $(SYSMON_DIR)/run -o $(SYSMON_DIR)/report.md
	grep -q '^## Pipeline phases' $(SYSMON_DIR)/report.md
	grep -q '^## Resource attribution' $(SYSMON_DIR)/report.md
	@echo "sysmon smoke passed; report in $(SYSMON_DIR)/report.md"

# SLO smoke: an overloaded tacsim run with the streaming SLO plane on
# must archive slo.jsonl with at least one fired alert, and tacreport
# must render the compliance section with the alert timeline.
SLO_DIR ?= /tmp/taccc-slo-smoke

slo-smoke:
	rm -rf $(SLO_DIR)
	$(GO) run ./cmd/tacsim -iot 60 -edge 3 -rho 0.98 -algo greedy -seed 11 \
	  -duration 10 -warmup 1 -max-queue 40 \
	  -slo 'p95<=20@90,miss<=0.05' -slo-window 0.5 -archive $(SLO_DIR)/run
	test -s $(SLO_DIR)/run/slo.jsonl
	grep -q '"kind":"slo-alert"' $(SLO_DIR)/run/slo.jsonl
	grep -q '"state":"firing"' $(SLO_DIR)/run/slo.jsonl
	$(GO) run ./cmd/tacreport $(SLO_DIR)/run -o $(SLO_DIR)/report.md
	grep -q '^## SLO compliance' $(SLO_DIR)/report.md
	grep -q '^### Alert timeline' $(SLO_DIR)/report.md
	@echo "slo smoke passed; report in $(SLO_DIR)/report.md"
