// Command tacsolve solves an assignment-problem instance (as produced by
// tacgen) with a chosen algorithm and reports delay, load and feasibility.
//
// Usage:
//
//	tacsolve -instance inst.json -algo qlearning
//	tacsolve -instance inst.json -algo exact            # branch-and-bound
//	tacsolve -instance inst.json -algo greedy -o a.json # save assignment
//	tacsolve -instance inst.json -algo all -workers 4   # compare, 4 solvers at a time
//	tacsolve -instance inst.json -archive runs/a        # self-contained run archive
//	tacsolve -iot 200 -edge 12 -rho 0.8 -algo tabu      # generate the scenario in-process
//	tacsolve -iot 200 -edge 12 -trace-out trace.json    # + Perfetto pipeline trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	taccc "taccc"
	"taccc/internal/cliutil"
	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
	"taccc/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tacsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		instPath = fs.String("instance", "", "instance JSON file (or generate one with -iot/-edge)")
		iot      = fs.Int("iot", 0, "scenario mode: number of IoT devices (generates the instance in-process; excludes -instance)")
		edge     = fs.Int("edge", 0, "scenario mode: number of edge servers")
		rho      = fs.Float64("rho", 0.7, "scenario mode: capacity tightness in (0, 1]; 0 means the default 0.7")
		family   = fs.String("family", "hierarchical", "scenario mode: topology family (hierarchical, geometric, waxman, barabasi-albert, grid, fattree, star, ring)")
		algo     = fs.String("algo", "qlearning", "algorithm name, 'exact' for branch-and-bound, or 'all' to compare every algorithm")
		seed     = fs.Int64("seed", 1, "algorithm seed")
		out      = fs.String("o", "", "write the assignment JSON here")
		list     = fs.Bool("list", false, "list available algorithms and exit")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "parallelism for -algo all (1 = sequential)")
		progress = fs.Bool("progress", false, "print solver improvements to stderr as they happen (with -algo all, in registry order once every solve has finished)")
	)
	version := cliutil.VersionFlag(fs)
	session := cliutil.NewObs(fs, "per-iteration solver events", true)
	defer session.Close()
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "tacsolve")
		return 0
	}
	if err := session.Validate(); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 2
	}
	reg := taccc.NewAlgorithmRegistry()
	if *list {
		fmt.Fprintln(stdout, strings.Join(append(reg.Names(), "exact"), "\n"))
		return 0
	}
	scenarioMode := *iot > 0 || *edge > 0
	switch {
	case scenarioMode && *instPath != "":
		fmt.Fprintln(stderr, "tacsolve: -instance and -iot/-edge are mutually exclusive")
		return 2
	case !scenarioMode && *instPath == "":
		fmt.Fprintln(stderr, "tacsolve: either -instance or -iot/-edge is required")
		return 2
	case scenarioMode && (*iot <= 0 || *edge <= 0):
		fmt.Fprintln(stderr, "tacsolve: scenario mode needs both -iot and -edge > 0")
		return 2
	case !(*rho >= 0 && *rho <= 1):
		fmt.Fprintf(stderr, "tacsolve: -rho %v must be in (0, 1], or 0 for the default\n", *rho)
		return 2
	}
	var a taccc.Assigner
	if *algo != "all" && *algo != "exact" {
		var err error
		if a, err = reg.New(*algo, *seed); err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 2
		}
	}
	if err := session.Start(*seed, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "tacsolve: %v\n", err)
		return 1
	}
	finish := func(summary runlog.Summary) int {
		if err := session.Finish(summary); err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		return 0
	}
	traceRoot := session.Root()
	sink := session.Progress(*progress)

	var in *taccc.Instance
	if scenarioMode {
		sc := taccc.Scenario{
			Family: taccc.Family(*family), NumIoT: *iot, NumEdge: *edge,
			Rho: *rho, Seed: *seed, Workers: *workers, Trace: traceRoot,
		}
		built, err := sc.Build()
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		in = built.Instance
	} else {
		f, err := os.Open(*instPath)
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		in, err = taccc.ReadInstance(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
	}

	if *algo == "all" {
		return finish(compareAll(in, reg, *seed, *workers, sink, traceRoot, stdout))
	}

	start := time.Now()
	solvePh := traceRoot.Child("solve")
	solvePh.SetAttr("algo", *algo)
	var got *taccc.Assignment
	if a == nil {
		res, err := taccc.BranchAndBound(in)
		if err != nil {
			solvePh.End()
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		got = res.Assignment
		fmt.Fprintf(stdout, "proven optimal: %v (nodes expanded: %d)\n", res.Proven, res.Nodes)
	} else {
		if sink != nil && !taccc.WithProgress(a, sink) {
			fmt.Fprintf(stderr, "tacsolve: note: %s does not report iteration progress\n", *algo)
		}
		taccc.WithPhases(a, solvePh)
		var err error
		got, err = a.Assign(in)
		if err != nil {
			solvePh.End()
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
	}
	solvePh.End()
	elapsed := time.Since(start)

	// Each figure is computed once and feeds both stdout and the archive
	// summary, so the printed and archived values cannot disagree.
	boundPh := traceRoot.Child("lower-bound")
	bound := taccc.LowerBound(in)
	boundPh.End()
	evalPh := traceRoot.Child("evaluate")
	var (
		total     = in.TotalCost(got)
		mean      = in.MeanCost(got)
		maxDelay  = in.MaxCost(got)
		imbalance = in.Imbalance(got)
		feasible  = in.Feasible(got)
	)
	evalPh.End()
	fmt.Fprintf(stdout, "algorithm:    %s\n", *algo)
	fmt.Fprintf(stdout, "devices:      %d  edges: %d\n", in.N(), in.M())
	fmt.Fprintf(stdout, "total delay:  %.3f ms\n", total)
	fmt.Fprintf(stdout, "mean delay:   %.3f ms\n", mean)
	fmt.Fprintf(stdout, "max delay:    %.3f ms\n", maxDelay)
	fmt.Fprintf(stdout, "lower bound:  %.3f ms (total)\n", bound)
	fmt.Fprintf(stdout, "imbalance:    %.3f\n", imbalance)
	fmt.Fprintf(stdout, "feasible:     %v\n", feasible)
	fmt.Fprintf(stdout, "solve time:   %s\n", elapsed.Round(time.Microsecond))
	fmt.Fprint(stdout, "edge utilization:")
	for _, u := range in.Utilization(got) {
		fmt.Fprintf(stdout, " %.2f", u)
	}
	fmt.Fprintln(stdout)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := got.WriteJSON(f); err != nil {
			fmt.Fprintf(stderr, "tacsolve: %v\n", err)
			return 1
		}
	}
	// Static placement SLO check: with no queueing dynamics, each
	// device's assigned delay is its end-to-end latency, so the whole
	// placement lands in window 0 and the verdict is "does this
	// assignment meet the objectives before load is applied". (tacsim
	// gives the dynamic, queue-aware verdict.)
	if tr := session.SLO(); tr != nil {
		for i := 0; i < in.N(); i++ {
			tr.Observe(0, in.CostAt(i, got.Of[i]), false)
		}
		tr.Finish(tr.WindowMs())
		session.PrintSLO()
	}
	return finish(runlog.Summary{
		"instance.devices":     float64(in.N()),
		"instance.edges":       float64(in.M()),
		"solve.total_delay_ms": total,
		"solve.mean_delay_ms":  mean,
		"solve.max_delay_ms":   maxDelay,
		"solve.lower_bound_ms": bound,
		"solve.imbalance":      imbalance,
		"solve.feasible":       boolFloat(feasible),
	})
}

// boolFloat encodes a flag as 0/1 for the archive summary.
func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// compareAll solves the instance with every registered algorithm — up to
// workers at a time — and prints a comparison table in registry order. Each
// algorithm owns one row slot, so the table — and the returned archive
// summary (algo.<name>.mean_delay_ms / .max_delay_ms / .feasible) — is
// identical at any parallelism. So is the progress stream: when sink is
// non-nil, each supporting algorithm's iteration events are buffered in
// its row and replayed into sink in registry order after every solve
// has finished.
func compareAll(in *taccc.Instance, reg *taccc.AlgorithmRegistry, seed int64, workers int, sink taccc.ProgressSink, traceRoot *taccc.Phase, stdout io.Writer) runlog.Summary {
	type row struct {
		got     *taccc.Assignment
		err     error
		elapsed time.Duration
		iters   []taccc.IterEvent
	}
	names := reg.Names()
	rows := make([]row, len(names))
	par.For(par.Workers(workers), len(names), func(i int) {
		a, err := reg.New(names[i], seed)
		if err != nil {
			rows[i].err = err
			return
		}
		if sink != nil {
			r := &rows[i]
			taccc.WithProgress(a, obs.ProgressFunc(func(ev taccc.IterEvent) { r.iters = append(r.iters, ev) }))
		}
		ph := traceRoot.Child(names[i])
		taccc.WithPhases(a, ph)
		start := time.Now()
		rows[i].got, rows[i].err = a.Assign(in)
		rows[i].elapsed = time.Since(start).Round(time.Microsecond)
		ph.End()
	})
	for _, r := range rows {
		for _, ev := range r.iters {
			sink.OnIter(ev)
		}
	}
	boundPh := traceRoot.Child("lower-bound")
	bound := taccc.LowerBound(in)
	boundPh.End()
	summary := runlog.Summary{
		"instance.devices":     float64(in.N()),
		"instance.edges":       float64(in.M()),
		"solve.lower_bound_ms": bound,
	}
	fmt.Fprintf(stdout, "%-18s %12s %12s %10s %12s\n", "algorithm", "mean ms", "max ms", "feasible", "time")
	fmt.Fprintf(stdout, "%-18s %12s %12s %10s %12s\n", "---------", "-------", "------", "--------", "----")
	for i, name := range names {
		r := rows[i]
		if r.err != nil {
			fmt.Fprintf(stdout, "%-18s %12s %12s %10s %12s\n", name, "-", "-", "no", r.elapsed)
			summary["algo."+name+".feasible"] = 0
			continue
		}
		mean, maxDelay, feasible := in.MeanCost(r.got), in.MaxCost(r.got), in.Feasible(r.got)
		fmt.Fprintf(stdout, "%-18s %12.3f %12.3f %10v %12s\n", name, mean, maxDelay, feasible, r.elapsed)
		summary["algo."+name+".mean_delay_ms"] = mean
		summary["algo."+name+".max_delay_ms"] = maxDelay
		summary["algo."+name+".feasible"] = boolFloat(feasible)
	}
	fmt.Fprintf(stdout, "lower bound (mean): %.3f ms\n", bound/float64(in.N()))
	return summary
}
