// Command tacbench regenerates the evaluation tables and figures
// (T1..T4, F1..F17; see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	tacbench -list
//	tacbench -exp T1
//	tacbench -exp all -quick
//	tacbench -exp F3 -reps 10 -csv
//	tacbench -exp all -workers 1   # sequential; same tables, slower
//	tacbench -json BENCH_results.json -quick -reps 5   # perf-gate bench
//
// Experiments and their replication cells run concurrently (bounded by
// -workers, default all cores). Every cell is independently seeded from
// -seed, so output is identical at any worker count.
//
// With -json, tacbench runs the fixed perf-tracking bench suite instead
// of the report experiments and writes machine-readable per-algorithm
// statistics (feasible-runtime and objective, with 95% CIs) to the named
// file; `tacreport old.json new.json -fail-on-regression <pct>` diffs two
// such files, which is how CI gates on BENCH_baseline.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	taccc "taccc"
	"taccc/internal/cliutil"
	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tacbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment ID (T1..T4, F1..F17) or 'all'")
		reps    = fs.Int("reps", 0, "replications per data point (0 = default)")
		quick   = fs.Bool("quick", false, "smaller instances and horizons")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		outdir  = fs.String("outdir", "", "also write each table as CSV into this directory")
		seed    = fs.Int64("seed", 1, "root seed")
		list    = fs.Bool("list", false, "list experiments and exit")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallelism across experiments and replication cells (1 = sequential); results are identical at any setting")
		md      = fs.Bool("md", false, "emit Markdown tables")
		prog    = fs.Bool("progress", false, "report per-experiment and per-algorithm progress on stderr")
		jsonOut = fs.String("json", "", "run the perf-tracking bench suite instead of -exp and write per-algorithm runtime/objective statistics to this JSON file (see tacreport)")
	)
	version := cliutil.VersionFlag(fs)
	session := cliutil.NewObs(fs, "structured run events (spec/algo/cell)", false)
	defer session.Close()
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tacbench")
		return 0
	}
	if err := session.Validate(); err != nil {
		fmt.Fprintf(stderr, "tacbench: %v\n", err)
		return 2
	}
	if *reps < 0 {
		fmt.Fprintf(stderr, "tacbench: -reps %d must be positive, or 0 for the default\n", *reps)
		return 2
	}
	if *list {
		for _, s := range taccc.Experiments() {
			fmt.Fprintf(stdout, "%-4s %s\n", s.ID, s.Title)
		}
		return 0
	}
	var specs []taccc.ExperimentSpec
	if *jsonOut == "" {
		if *exp == "all" {
			specs = taccc.Experiments()
		} else {
			s, err := taccc.ExperimentByID(*exp)
			if err != nil {
				fmt.Fprintf(stderr, "tacbench: %v\n", err)
				return 2
			}
			specs = []taccc.ExperimentSpec{s}
		}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(stderr, "tacbench: %v\n", err)
			return 1
		}
	}
	if err := session.Start(*seed, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "tacbench: %v\n", err)
		return 1
	}
	// Observability: sinks are strictly observational, so tables are
	// identical whether or not any is attached.
	var printer obs.Sink
	if *prog {
		printer = &progressPrinter{w: stderr}
	}
	progressSink := obs.MultiSink(printer, session.Sink())
	if reg := session.Registry(); reg != nil {
		progressSink = obs.CountEvents(reg, progressSink)
	}
	finish := func(summary runlog.Summary) int {
		if err := session.Finish(summary); err != nil {
			fmt.Fprintf(stderr, "tacbench: %v\n", err)
			return 1
		}
		return 0
	}

	opts := taccc.ExperimentOptions{Reps: *reps, Quick: *quick, Seed: *seed, Workers: *workers, Progress: progressSink, Trace: session.Root()}
	if *jsonOut != "" {
		return runBenchJSON(opts, *jsonOut, finish, stdout, stderr)
	}
	// The suite runner executes independent experiments concurrently;
	// results come back in spec order, so the report reads the same at any
	// worker count.
	tables := 0
	for _, res := range taccc.RunExperiments(specs, opts) {
		if res.Err != nil {
			fmt.Fprintf(stderr, "tacbench: %s: %v\n", res.Spec.ID, res.Err)
			return 1
		}
		for _, t := range res.Tables {
			switch {
			case *csv:
				fmt.Fprintf(stdout, "# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			case *md:
				fmt.Fprintln(stdout, t.Markdown())
			default:
				fmt.Fprintln(stdout, t.Render())
			}
			if *outdir != "" {
				path := filepath.Join(*outdir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(stderr, "tacbench: %v\n", err)
					return 1
				}
			}
			tables++
		}
		fmt.Fprintf(stdout, "(%s completed in %s)\n\n", res.Spec.ID, res.Elapsed.Round(time.Millisecond))
	}
	return finish(runlog.Summary{
		"bench.specs_ok": float64(len(specs)),
		"bench.tables":   float64(tables),
	})
}

// runBenchJSON executes the fixed perf-tracking bench suite and writes
// BENCH_results-shaped JSON to path. The archive summary carries the
// deterministic objective side of every (scenario, algorithm) pair.
func runBenchJSON(opts taccc.ExperimentOptions, path string, finish func(runlog.Summary) int, stdout, stderr io.Writer) int {
	res, err := taccc.RunBenchSuite(opts)
	if err != nil {
		fmt.Fprintf(stderr, "tacbench: %v\n", err)
		return 1
	}
	res.Tool, res.Version = "tacbench", cliutil.Version()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "tacbench: %v\n", err)
		return 1
	}
	err = res.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "tacbench: %v\n", err)
		return 1
	}
	summary := runlog.Summary{"bench.scenarios": float64(len(res.Scenarios))}
	algos := 0
	for _, sc := range res.Scenarios {
		algos = len(sc.Algos)
		for _, a := range sc.Algos {
			summary["bench."+sc.ID+"."+a.Name+".mean_cost_ms"] = a.MeanCostMs
			summary["bench."+sc.ID+"."+a.Name+".feasible_rate"] = a.FeasibleRate
			summary["bench."+sc.ID+"."+a.Name+".allocs_per_op"] = float64(a.AllocsPerOp)
		}
	}
	fmt.Fprintf(stdout, "bench:      %d scenarios x %d algorithms -> %s\n", len(res.Scenarios), algos, path)
	return finish(summary)
}

// progressPrinter renders the coarse-grained run events (spec and
// algorithm boundaries) as human-readable stderr lines; per-cell events
// are too chatty for a terminal and are left to -events.
type progressPrinter struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *progressPrinter) Emit(ev taccc.ObsEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case "spec-start":
		fmt.Fprintf(p.w, "%v: running (%v)\n", ev.Fields["id"], ev.Fields["title"])
	case "spec-done":
		if ok, _ := ev.Fields["ok"].(bool); !ok {
			fmt.Fprintf(p.w, "%v: FAILED: %v\n", ev.Fields["id"], ev.Fields["error"])
			return
		}
		if ms, isF := ev.Fields["elapsed_ms"].(float64); isF {
			fmt.Fprintf(p.w, "%v: done in %.0f ms\n", ev.Fields["id"], ms)
		}
	case "algo-done":
		if cost, isF := ev.Fields["mean_cost_ms"].(float64); isF {
			fmt.Fprintf(p.w, "  %v: mean %.3f ms\n", ev.Fields["algo"], cost)
		} else {
			fmt.Fprintf(p.w, "  %v: no feasible replication\n", ev.Fields["algo"])
		}
	}
}
