package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"taccc/internal/assign"
	"taccc/internal/gap"
	"taccc/internal/jsonx"
	"taccc/internal/obs/sysmon"
	"taccc/internal/stats"
	"taccc/internal/xrand"
)

// The bench suite is the repository's machine-readable performance
// trajectory: a fixed set of scenarios solved by every standard
// algorithm, summarized per algorithm as feasible-runtime and objective
// statistics with 95% confidence intervals. `tacbench -json` writes a
// BenchResults file (BENCH_results.json); `tacreport old.json new.json
// -fail-on-regression <pct>` diffs two of them and gates CI on the
// committed BENCH_baseline.json. Objective fields are bit-identical
// across machines (they derive from seeds alone); runtime fields carry
// their CIs so the gate can tell drift from noise.

// BenchAlgo is one algorithm's aggregated bench statistics on one
// scenario — the unit the perf gate compares across runs.
type BenchAlgo struct {
	Name string `json:"name"`
	// MeanCostMs / CostCI95Ms summarize mean per-device delay over
	// feasible replications (deterministic given the scenario seed).
	MeanCostMs float64 `json:"mean_cost_ms"`
	CostCI95Ms float64 `json:"cost_ci95_ms"`
	// FeasibleRuntimeMs / RuntimeCI95Ms summarize wall-clock solve time
	// over feasible replications (machine-dependent).
	FeasibleRuntimeMs float64 `json:"feasible_runtime_ms"`
	RuntimeCI95Ms     float64 `json:"runtime_ci95_ms"`
	// AllocsPerOp / BytesPerOp are the heap allocations and bytes of one
	// steady-state solve (min over measured rounds after a warm-up, like
	// testing.B's allocs/op). Deterministic given the scenario seed, so
	// the perf gate treats a change as a real regression, not noise.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// PeakHeapBytes / GCPauseMs profile one steady-state solve's memory
	// pressure: the HeapAlloc high-water mark of one solve run with the
	// collector disabled (1 ms watcher, minimum over rounds — without GC
	// pacing in the way the mark is reproducible and judged
	// threshold-only like the alloc counts) and the mean pause of the
	// forced GC that closes each round over that solve's garbage (never
	// zero, so two-run ratios stay finite). Pause durations are
	// scheduler-noisy at the microsecond scale, so GCPauseMs carries its
	// 95% CI over the rounds and the diff subtracts the half-width
	// before judging, as for runtimes.
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	GCPauseMs     float64 `json:"gc_pause_ms"`
	GCPauseCI95Ms float64 `json:"gc_pause_ci95_ms"`
	FeasibleRate  float64 `json:"feasible_rate"`
	Errors        int     `json:"errors,omitempty"`
	Reps          int     `json:"reps"`
}

// BenchScenario is one scenario's results.
type BenchScenario struct {
	ID      string      `json:"id"`
	NumIoT  int         `json:"iot"`
	NumEdge int         `json:"edge"`
	Rho     float64     `json:"rho"`
	Algos   []BenchAlgo `json:"algorithms"`
}

// BenchResults is the on-disk shape of BENCH_results.json /
// BENCH_baseline.json.
type BenchResults struct {
	Tool      string          `json:"tool"`
	Version   string          `json:"version"`
	Seed      int64           `json:"seed"`
	Quick     bool            `json:"quick"`
	Reps      int             `json:"reps"`
	Scenarios []BenchScenario `json:"scenarios"`
}

// benchScenarios returns the fixed suite: a comfortably provisioned
// mid-size instance, a capacity-tight one, and a larger "meta" instance
// sized so the metaheuristics' inner loops — not setup — dominate their
// runtime, all shrunk under -quick.
func benchScenarios(quick bool) []BenchScenario {
	if quick {
		return []BenchScenario{
			{ID: "small", NumIoT: 30, NumEdge: 4, Rho: 0.7},
			{ID: "tight", NumIoT: 40, NumEdge: 5, Rho: 0.9},
			{ID: "meta", NumIoT: 120, NumEdge: 12, Rho: 0.85},
		}
	}
	return []BenchScenario{
		{ID: "small", NumIoT: 60, NumEdge: 6, Rho: 0.7},
		{ID: "tight", NumIoT: 100, NumEdge: 10, Rho: 0.9},
		{ID: "meta", NumIoT: 400, NumEdge: 25, Rho: 0.85},
	}
}

// RunBench executes the bench suite with the standard algorithm set and
// returns per-scenario, per-algorithm statistics. Objective statistics
// are reproducible from o.Seed at any o.Workers setting; runtime
// statistics reflect this machine. Tool and Version are left for the
// caller to stamp.
func RunBench(o Options) (*BenchResults, error) {
	o = o.withDefaults()
	out := &BenchResults{Seed: o.Seed, Quick: o.Quick, Reps: o.Reps}
	for _, bs := range benchScenarios(o.Quick) {
		sc := Scenario{
			NumIoT: bs.NumIoT, NumEdge: bs.NumEdge, Rho: bs.Rho,
			Seed: xrand.SplitSeed(o.Seed, "bench-"+bs.ID),
		}
		stats, err := o.compare(sc, DefaultAlgorithms)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", bs.ID, err)
		}
		for _, st := range stats {
			bs.Algos = append(bs.Algos, BenchAlgo{
				Name:              st.Name,
				MeanCostMs:        st.MeanCost,
				CostCI95Ms:        st.CostCI95,
				FeasibleRuntimeMs: st.FeasibleRuntimeMs,
				RuntimeCI95Ms:     st.FeasibleRuntimeCI95,
				FeasibleRate:      st.FeasibleRate,
				Errors:            st.Errors,
				Reps:              st.Reps,
			})
		}
		if err := measureBenchAllocs(sc, bs.Algos); err != nil {
			return nil, fmt.Errorf("bench %s: alloc pass: %w", bs.ID, err)
		}
		out.Scenarios = append(out.Scenarios, bs)
	}
	return out, nil
}

// measureBenchAllocs fills each algorithm's AllocsPerOp/BytesPerOp and
// PeakHeapBytes/GCPauseMs by re-solving replication 0 of the scenario
// sequentially: one warm-up solve grows every lazily sized buffer, then
// the minimum over three measured solves filters incidental runtime
// allocation out; five further resource rounds (with the peak-heap
// watcher running) follow so the watcher never perturbs the alloc
// figures. Run after the parallel compare pass so no worker goroutine
// allocates while the runtime.MemStats deltas are taken.
func measureBenchAllocs(sc Scenario, algos []BenchAlgo) error {
	s := sc
	s.Seed = xrand.SplitSeed(sc.Seed, "rep-0")
	b, err := s.Build()
	if err != nil {
		return err
	}
	reg := assign.NewRegistry()
	for idx := range algos {
		name := algos[idx].Name
		// The same per-cell seed the compare pass used for replication 0,
		// so the measured solve follows the identical execution path.
		seed := xrand.SplitSeed(sc.Seed, fmt.Sprintf("%s-%d", name, 0))
		solve := func() error {
			a, err := reg.New(name, seed)
			if err != nil {
				return err
			}
			if _, err := a.Assign(b.Instance); err != nil && !errors.Is(err, gap.ErrInfeasible) {
				return err
			}
			return nil
		}
		if err := solve(); err != nil { // warm-up
			return err
		}
		var before, after runtime.MemStats //lint:allow resmon bench measurement harness reads MemStats deltas in place
		bestAllocs, bestBytes := ^uint64(0), ^uint64(0)
		for round := 0; round < 3; round++ {
			a, err := reg.New(name, seed)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&before) //lint:allow resmon alloc pass needs a raw Mallocs/TotalAlloc delta around one solve
			_, aerr := a.Assign(b.Instance)
			runtime.ReadMemStats(&after) //lint:allow resmon alloc pass needs a raw Mallocs/TotalAlloc delta around one solve
			if aerr != nil && !errors.Is(aerr, gap.ErrInfeasible) {
				return aerr
			}
			if d := after.Mallocs - before.Mallocs; d < bestAllocs {
				bestAllocs = d
			}
			if d := after.TotalAlloc - before.TotalAlloc; d < bestBytes {
				bestBytes = d
			}
		}
		algos[idx].AllocsPerOp = bestAllocs
		algos[idx].BytesPerOp = bestBytes

		// Resource rounds run after the alloc rounds so the peak watcher's
		// own bookkeeping never pollutes allocs/op. Each round settles the
		// heap with a forced GC, then disables the collector for the solve:
		// with nothing reclaimed mid-solve, the HeapAlloc high-water mark
		// is the settled baseline plus everything the solve allocates — a
		// reproducible figure, where a peak under live GC pacing would
		// swing with collection timing. The closing forced GC (collector
		// re-enabled) is then the round's whole pause delta, so the pause
		// is never zero and covers a comparable amount of garbage each
		// time. Peak heap is the minimum over rounds (like the alloc
		// counts); pause is the mean with its CI, since individual pause
		// durations still jitter with the scheduler.
		bestPeak := ^uint64(0)
		var pause stats.Welford
		for round := 0; round < 5; round++ {
			a, err := reg.New(name, seed)
			if err != nil {
				return err
			}
			runtime.GC()
			gcPct := debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)                  //lint:allow resmon resource pass brackets the round's GC pause delta
			stopPeak := sysmon.WatchPeak(time.Millisecond) //lint:allow taintclock alloc pass samples live-heap peak on a real ticker; results are measurements, not solver state
			_, aerr := a.Assign(b.Instance)
			peak := stopPeak()
			debug.SetGCPercent(gcPct)
			runtime.GC()
			runtime.ReadMemStats(&after) //lint:allow resmon resource pass brackets the round's GC pause delta
			if aerr != nil && !errors.Is(aerr, gap.ErrInfeasible) {
				return aerr
			}
			if peak < bestPeak {
				bestPeak = peak
			}
			pause.Add(float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6)
		}
		algos[idx].PeakHeapBytes = bestPeak
		algos[idx].GCPauseMs = pause.Mean()
		algos[idx].GCPauseCI95Ms = pause.CI95()
	}
	return nil
}

// WriteJSON writes the results as indented JSON.
func (b *BenchResults) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBenchResults parses a BENCH_results.json / BENCH_baseline.json
// file strictly (see jsonx.Decode), validating just enough that a
// truncated or foreign file is reported descriptively rather than diffed
// as an empty bench.
func ReadBenchResults(r io.Reader) (*BenchResults, error) {
	var b BenchResults
	if err := jsonx.Decode(r, &b); err != nil {
		return nil, fmt.Errorf("bench results: invalid or truncated JSON: %w", err)
	}
	if len(b.Scenarios) == 0 {
		return nil, fmt.Errorf("bench results: no scenarios (not a bench file?)")
	}
	for _, sc := range b.Scenarios {
		if sc.ID == "" || len(sc.Algos) == 0 {
			return nil, fmt.Errorf("bench results: scenario %q has no algorithm stats", sc.ID)
		}
	}
	return &b, nil
}
