package experiment

import (
	"errors"
	"fmt"

	"taccc/internal/assign"
	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/par"
	"taccc/internal/stats"
	"taccc/internal/xrand"
)

// wallMs is the package's one wall-clock source, behind the sanctioned
// obs.Clock doorway: runtime measurement is observational by contract
// (it lands in runtime columns and events, never in seeds, assignments
// or costs), and routing it through obs keeps this package clean under
// taclint's detrand rule without per-site annotations.
var wallMs = obs.WallClock()

// DefaultAlgorithms is the algorithm subset used by most experiments:
// every baseline class plus the paper's RL heuristics, ordered weakest
// first so tables read top-to-bottom as "worse to better".
var DefaultAlgorithms = []string{
	"random", "round-robin", "first-fit", "greedy", "regret-greedy",
	"local-search", "tabu", "lns", "lagrangian", "qlearning",
}

// AlgoStat aggregates one algorithm's behaviour over replications of a
// scenario.
type AlgoStat struct {
	Name string
	// MeanCost and CostCI95 summarize per-device mean delay (ms) over
	// feasible replications.
	MeanCost float64
	CostCI95 float64
	// MeanRuntimeMs is the mean wall-clock solve time over ALL attempted
	// replications — feasible, infeasible and errored alike — so it
	// reflects what a caller actually pays per solve. Compare against
	// FeasibleRuntimeMs, which averages over the same population as the
	// cost fields.
	MeanRuntimeMs float64
	// FeasibleRuntimeMs is the mean wall-clock solve time over feasible
	// replications only (0 when none were feasible). MeanCost and CostCI95
	// average over this same population, so runtime and quality columns
	// built from it are directly comparable.
	FeasibleRuntimeMs float64
	// FeasibleRuntimeCI95 is the 95% confidence half-width of
	// FeasibleRuntimeMs — the uncertainty the perf-regression gate uses
	// when judging whether a runtime delta is significant.
	FeasibleRuntimeCI95 float64
	// FeasibleRate is the fraction of replications with a feasible
	// result.
	FeasibleRate float64
	// Reps is the number of replications attempted.
	Reps int
	// Errors counts replications that failed with an unexpected error
	// (anything other than gap.ErrInfeasible). Errored replications count
	// toward MeanRuntimeMs and Reps but not toward FeasibleRate or the
	// cost fields.
	Errors int
}

// cell is one (algorithm, replication) solve result. Cells are computed
// independently — possibly concurrently — and folded sequentially, so
// aggregate statistics never depend on execution order.
type cell struct {
	runtimeMs float64
	cost      float64
	feasible  bool
	err       error
}

// CompareAlgorithmsWorkers runs each named algorithm on reps independently
// seeded replications of the scenario and aggregates, on up to workers
// goroutines (<= 0 means all cores, 1 restores fully sequential
// execution). Scenario seeds are derived from sc.Seed, so the same call is
// fully reproducible at any parallelism.
//
// Each (algorithm, replication) cell is an independent unit of work: its
// assigner is constructed from xrand.SplitSeed(sc.Seed, "<algo>-<rep>")
// exactly as the sequential loop always did, it writes its result into the
// slot it owns, and aggregation folds the pre-sized cell slice in a fixed
// order afterwards. Output is therefore bit-identical for every worker
// count; only wall-clock time changes.
//
// An algorithm failing a replication with an unexpected error (anything
// other than gap.ErrInfeasible) no longer aborts the whole comparison: the
// failure is counted in that algorithm's AlgoStat.Errors and the remaining
// cells still run. Unknown algorithm names and scenario build failures
// still error out the call.
func CompareAlgorithmsWorkers(sc Scenario, algos []string, reps, workers int) ([]AlgoStat, error) {
	return compareWithRegistry(assign.NewRegistry(), sc, algos, reps, workers, nil)
}

// CompareAlgorithmsObserved is CompareAlgorithmsWorkers with a progress
// sink. The sink receives one "cell" event as each (algorithm,
// replication) solve finishes — fields: algo, rep, runtime_ms, feasible,
// cost_ms when feasible, error when the solve failed unexpectedly — and
// one "algo-done" event per algorithm after the sequential fold, carrying
// the aggregate (mean_cost_ms, feasible_rate, errors). Cell events are
// emitted from worker goroutines, so their interleaving across algorithms
// depends on scheduling; the fields identify each cell unambiguously and
// the aggregates are computed from the owned slots, never from the event
// stream, so results stay bit-identical at any worker count. A nil sink
// is free.
func CompareAlgorithmsObserved(sc Scenario, algos []string, reps, workers int, progress obs.Sink) ([]AlgoStat, error) {
	return compareWithRegistry(assign.NewRegistry(), sc, algos, reps, workers, progress)
}

// compareWithRegistry is the engine behind CompareAlgorithmsWorkers,
// parameterized by registry so tests can inject failing assigners.
func compareWithRegistry(reg *assign.Registry, sc Scenario, algos []string, reps, workers int, progress obs.Sink) ([]AlgoStat, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("experiment: reps must be positive, got %d", reps)
	}
	// Reject unknown algorithm names before any cell runs; a typo should
	// fail fast, not surface as reps*len(algos) errored cells.
	for _, name := range algos {
		if _, err := reg.New(name, 0); err != nil {
			return nil, err
		}
	}
	w := par.Workers(workers)
	// Pre-build the instances once; all algorithms see identical inputs.
	// Builds are independent per replication, so they fan out too.
	builds := make([]*Built, reps)
	err := par.ForErr(w, reps, func(r int) error {
		s := sc
		s.Seed = xrand.SplitSeed(sc.Seed, fmt.Sprintf("rep-%d", r))
		b, err := s.Build()
		if err != nil {
			return err
		}
		builds[r] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Solve every (algorithm, replication) cell into its own slot.
	// Instances are read-only for assigners (see assign.Assigner), so
	// cells sharing a replication's instance never contend.
	cells := make([]cell, len(algos)*reps)
	par.For(w, len(cells), func(k int) {
		name, r := algos[k/reps], k%reps
		a, err := reg.New(name, xrand.SplitSeed(sc.Seed, fmt.Sprintf("%s-%d", name, r)))
		if err != nil {
			cells[k] = cell{err: err}
			return
		}
		in := builds[r].Instance
		start := wallMs.NowMs()
		got, err := a.Assign(in)
		c := cell{runtimeMs: wallMs.NowMs() - start}
		if err != nil {
			c.err = err
		} else {
			c.feasible = true
			c.cost = in.MeanCost(got)
		}
		cells[k] = c
		if progress != nil {
			fields := map[string]interface{}{
				"algo": name, "rep": r, "runtime_ms": c.runtimeMs, "feasible": c.feasible,
			}
			if c.feasible {
				fields["cost_ms"] = c.cost
			} else if c.err != nil && !errors.Is(c.err, gap.ErrInfeasible) {
				fields["error"] = c.err.Error()
			}
			obs.Emit(progress, "cell", fields)
		}
	})
	// Sequential fold in (algorithm, replication) order: identical
	// accumulation order — and therefore identical floating-point results —
	// at any worker count.
	out := make([]AlgoStat, 0, len(algos))
	for ai, name := range algos {
		var cost, runtime, feasRuntime stats.Welford
		feasible, errored := 0, 0
		for r := 0; r < reps; r++ {
			c := cells[ai*reps+r]
			runtime.Add(c.runtimeMs)
			if c.err != nil {
				if !errors.Is(c.err, gap.ErrInfeasible) {
					errored++
				}
				continue
			}
			feasible++
			feasRuntime.Add(c.runtimeMs)
			cost.Add(c.cost)
		}
		st := AlgoStat{
			Name:          name,
			MeanRuntimeMs: runtime.Mean(),
			FeasibleRate:  float64(feasible) / float64(reps),
			Reps:          reps,
			Errors:        errored,
		}
		if feasible > 0 {
			st.MeanCost = cost.Mean()
			st.CostCI95 = cost.CI95()
			st.FeasibleRuntimeMs = feasRuntime.Mean()
			st.FeasibleRuntimeCI95 = feasRuntime.CI95()
		}
		if progress != nil {
			fields := map[string]interface{}{
				"algo": name, "feasible_rate": st.FeasibleRate, "errors": st.Errors, "reps": reps,
			}
			if feasible > 0 {
				fields["mean_cost_ms"] = st.MeanCost
			}
			obs.Emit(progress, "algo-done", fields)
		}
		out = append(out, st)
	}
	return out, nil
}
