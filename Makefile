# Developer and CI entry points. `make ci` is what a pipeline's main job
# should run: vet + lint + build + tests. The race detector has its own
# target (and its own CI job) so the slow instrumented run parallelizes
# with the fast gate instead of serializing behind it.

GO ?= go

.PHONY: all build test race bench vet lint loc ci fuzz-smoke examples-smoke bench-json perf-gate baseline trace-smoke sysmon-smoke slo-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the full tree. The parallel layer's tests (workers=1 vs
# workers=8 determinism, experiment suite runner) are the interesting
# part; everything else rides along for free. The simulator's event loop
# and its observer goroutine share batches, the metrics registry and the
# sinks, so those packages run ten more times: one run can miss an
# interleaving that another catches.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -timeout 10m ./internal/cluster/ ./cmd/tacsim/

# Benchmark the parallel kernels at workers=1 vs workers=GOMAXPROCS, the
# cluster simulator with span tracing off/on, the Q-learning assigner
# (the RL training loop every tabular variant shares), regret-greedy (the
# RL warm start) up to 2000 devices, the wide 20000x200 scenario build,
# greedy and lagrangian scaling at 200 edges (BenchmarkWideScaling), and
# LowerBound at 200x20 and on the wide scenario, plus the
# pre-existing hot-path micro-benchmarks. Override BENCHTIME (e.g. 1x in
# CI smoke).
BENCHTIME ?= 2x

bench:
	$(GO) test -bench 'Workers|ClusterSim|AssignQLearning|AssignRegret|Wide|LowerBound' -benchtime $(BENCHTIME) -run '^$$' .

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

# Fuzz smoke: every native fuzz target in the module (each `func Fuzz*`
# in a test file) runs for FUZZTIME past its seed corpus; plain `go test`
# runs only the seeds. Go fuzzes one target per invocation, so each gets
# its own `go test -fuzz` call. A failing input lands under the package's
# testdata/fuzz/, where it becomes a regression seed once committed.
FUZZTIME ?= 10s
FUZZFILES = find . -name '*_test.go' -not -path './perfbench/*' -not -path './.*' -exec grep -l '^func Fuzz' {} +

fuzz-smoke:
	@set -e; for file in $$($(FUZZFILES) | sort); do \
	  for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
	    echo "fuzz-smoke: $$name in $$(dirname $$file) for $(FUZZTIME)"; \
	    $(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$(dirname $$file); \
	  done; \
	done

# Examples smoke: every program under examples/ runs to completion, and
# a non-zero exit fails the target. `go build ./...` only compiles them.
examples-smoke:
	@set -e; for dir in examples/*/; do \
	  echo "examples-smoke: $$dir"; \
	  $(GO) run ./$$dir > /dev/null; \
	done

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
# trace.jsonl, tactrace -chrome strict-validates the export (and must
# reject a copy with bytes appended), and tacreport renders the
# phase-attribution table from the archive. The end-to-end counterpart
# of the in-process pipeline-tracing tests. tacsolve -instance must
# solve an instance from tacgen and reject copies of it with bytes
# appended or with a mis-cased member name.
TRACE_DIR ?= /tmp/taccc-trace-smoke

trace-smoke:
	rm -rf $(TRACE_DIR)
	$(GO) run ./cmd/tacsolve -iot 80 -edge 8 -rho 0.8 -algo tabu -seed 7 \
	  -workers 4 -trace-out $(TRACE_DIR)/trace.json -archive $(TRACE_DIR)/run
	$(GO) run ./cmd/tactrace -chrome $(TRACE_DIR)/trace.json
	cp $(TRACE_DIR)/trace.json $(TRACE_DIR)/trailing.json
	echo garbage >> $(TRACE_DIR)/trailing.json
	if $(GO) run ./cmd/tactrace -chrome $(TRACE_DIR)/trailing.json; then \
	  echo "trace smoke: tactrace -chrome accepted trailing data"; exit 1; \
	fi
	$(GO) run ./cmd/tacgen -kind instance -iot 40 -edge 4 -rho 0.8 -seed 7 -o $(TRACE_DIR)/inst.json
	$(GO) run ./cmd/tacsolve -instance $(TRACE_DIR)/inst.json -algo greedy
	cp $(TRACE_DIR)/inst.json $(TRACE_DIR)/inst-trailing.json
	echo garbage >> $(TRACE_DIR)/inst-trailing.json
	if $(GO) run ./cmd/tacsolve -instance $(TRACE_DIR)/inst-trailing.json -algo greedy; then \
	  echo "trace smoke: tacsolve -instance accepted trailing data"; exit 1; \
	fi
	sed 's/"cost_ms"/"COST_MS"/' $(TRACE_DIR)/inst.json > $(TRACE_DIR)/inst-miscased.json
	if $(GO) run ./cmd/tacsolve -instance $(TRACE_DIR)/inst-miscased.json -algo greedy; then \
	  echo "trace smoke: tacsolve -instance accepted a mis-cased member"; exit 1; \
	fi
	$(GO) run ./cmd/tacreport $(TRACE_DIR)/run -o $(TRACE_DIR)/report.md
	grep -q '^## Pipeline phases' $(TRACE_DIR)/report.md
	grep -q 'critical path:' $(TRACE_DIR)/report.md
	@echo "trace smoke passed; report in $(TRACE_DIR)/report.md"

# Sysmon smoke: the trace smoke with resource sampling on — the export
# must still strict-validate (now with counter tracks), the archive must
# carry resources.jsonl but no live-only series in metrics.json, and the
# report must grow the per-phase resource-attribution table next to the
# wall-time one.
SYSMON_DIR ?= /tmp/taccc-sysmon-smoke

sysmon-smoke:
	rm -rf $(SYSMON_DIR)
	$(GO) run ./cmd/tacsolve -iot 80 -edge 8 -rho 0.8 -algo tabu -seed 7 \
	  -workers 4 -sysmon -sysmon-interval 25ms \
	  -trace-out $(SYSMON_DIR)/trace.json -archive $(SYSMON_DIR)/run
	$(GO) run ./cmd/tactrace -chrome $(SYSMON_DIR)/trace.json
	test -s $(SYSMON_DIR)/run/resources.jsonl
	if grep -Eq '"(go|proc|sysmon|slo)\.' $(SYSMON_DIR)/run/metrics.json; then \
	  echo "sysmon smoke: live-only series in the archived metrics.json"; exit 1; \
	fi
	$(GO) run ./cmd/tacreport $(SYSMON_DIR)/run -o $(SYSMON_DIR)/report.md
	grep -q '^## Pipeline phases' $(SYSMON_DIR)/report.md
	grep -q '^## Resource attribution' $(SYSMON_DIR)/report.md
	@echo "sysmon smoke passed; report in $(SYSMON_DIR)/report.md"

# SLO smoke: an overloaded tacsim run with the streaming SLO plane, the
# resource sampler, the pipeline trace and -events on must archive all
# four streams, each non-empty, with at least one fired alert in
# slo.jsonl, keep the live-only series out of metrics.json, and write an
# -events file byte-identical to the archive's events.jsonl. tacreport
# must render the phase, resource and compliance sections with the alert
# timeline, and must fail, naming slo.jsonl, on a copy of the archive
# whose slo.jsonl is cut mid-line (its last record loses its closing
# brace). tactrace must rebuild the request
# records from the archive's request spans.
SLO_DIR ?= /tmp/taccc-slo-smoke

slo-smoke:
	rm -rf $(SLO_DIR)
	$(GO) run ./cmd/tacsim -iot 60 -edge 3 -rho 0.98 -algo greedy -seed 11 \
	  -duration 10 -warmup 1 -max-queue 40 \
	  -slo 'p95<=20@90,miss<=0.05' -slo-window 0.5 \
	  -sysmon -sysmon-interval 25ms -trace-out $(SLO_DIR)/trace.json \
	  -events $(SLO_DIR)/events.jsonl -archive $(SLO_DIR)/run
	for f in events trace resources slo; do \
	  test -s $(SLO_DIR)/run/$$f.jsonl || { echo "slo smoke: empty or missing $$f.jsonl"; exit 1; }; \
	done
	cmp $(SLO_DIR)/events.jsonl $(SLO_DIR)/run/events.jsonl
	grep -q '"kind":"slo-alert"' $(SLO_DIR)/run/slo.jsonl
	grep -q '"state":"firing"' $(SLO_DIR)/run/slo.jsonl
	if grep -Eq '"(go|proc|sysmon|slo)\.' $(SLO_DIR)/run/metrics.json; then \
	  echo "slo smoke: live-only series in the archived metrics.json"; exit 1; \
	fi
	$(GO) run ./cmd/tacreport $(SLO_DIR)/run -o $(SLO_DIR)/report.md
	grep -q '^## Pipeline phases' $(SLO_DIR)/report.md
	grep -q '^## Resource attribution' $(SLO_DIR)/report.md
	grep -q '^## SLO compliance' $(SLO_DIR)/report.md
	grep -q '^### Alert timeline' $(SLO_DIR)/report.md
	cp -r $(SLO_DIR)/run $(SLO_DIR)/cut
	sed '$$ s/.$$//' $(SLO_DIR)/run/slo.jsonl > $(SLO_DIR)/cut/slo.jsonl
	if $(GO) run ./cmd/tacreport $(SLO_DIR)/cut -o $(SLO_DIR)/cut.md 2> $(SLO_DIR)/cut.err; then \
	  echo "slo smoke: tacreport accepted a cut slo.jsonl"; exit 1; \
	fi
	grep -q 'slo.jsonl' $(SLO_DIR)/cut.err
	$(GO) run ./cmd/tactrace -in $(SLO_DIR)/run > $(SLO_DIR)/trace.txt
	grep -q '^records:' $(SLO_DIR)/trace.txt
	@echo "slo smoke passed; report in $(SLO_DIR)/report.md"
