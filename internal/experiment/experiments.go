package experiment

import (
	"errors"
	"fmt"
	"math"
	"time"

	"taccc/internal/assign"
	"taccc/internal/cluster"
	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/par"
	"taccc/internal/stats"
	"taccc/internal/topology"
	"taccc/internal/xrand"
)

// Options tunes experiment execution. The zero value means full fidelity
// with 5 replications, seed 1 and all cores.
type Options struct {
	// Reps is the number of replications per data point (default 5).
	Reps int
	// Quick shrinks instance sizes and horizons for smoke runs.
	Quick bool
	// Seed is the root seed (default 1).
	Seed int64
	// Workers bounds the parallelism of replication cells and of RunAll:
	// <= 0 means all cores (runtime.GOMAXPROCS(0)), 1 restores fully
	// sequential execution. Results are identical at every setting; only
	// wall-clock time changes.
	Workers int
	// Progress, when non-nil, receives structured events as experiments
	// run: one "cell" per (algorithm, replication) solve, one "algo-done"
	// per aggregated algorithm, and "spec-start"/"spec-done" from RunAll.
	// Strictly observational — results are bit-identical with or without
	// a sink (see CompareAlgorithmsObserved for the ordering caveat).
	Progress obs.Sink
	// Trace, when non-nil, is the pipeline-trace parent phase: RunAll
	// emits one wall-clock child span per experiment-suite cell (spec),
	// named by the spec ID. Strictly observational, like Progress.
	Trace *obs.Phase
}

// compare runs the standard algorithm comparison with this Options'
// worker bound and progress sink.
func (o Options) compare(sc Scenario, algos []string) ([]AlgoStat, error) {
	return CompareAlgorithmsObserved(sc, algos, o.Reps, o.Workers, o.Progress)
}

// statCell formats an algorithm's mean cost for a comparison table,
// annotating partial feasibility and unexpected solver errors so neither
// is silently averaged away.
func statCell(st AlgoStat) string {
	cell := formatFloat(st.MeanCost)
	if st.FeasibleRate <= 0 {
		cell = "-"
	}
	if st.FeasibleRate < 1 {
		cell = fmt.Sprintf("%s (%.0f%% feas)", cell, 100*st.FeasibleRate)
	}
	if st.Errors > 0 {
		cell = fmt.Sprintf("%s [%d err]", cell, st.Errors)
	}
	return cell
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 5
		if o.Quick {
			o.Reps = 2
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Spec describes a runnable experiment.
type Spec struct {
	// ID is the table/figure identifier from DESIGN.md.
	ID string
	// Title is the one-line description.
	Title string
	// Run executes the experiment.
	Run func(Options) ([]*Table, error)
}

// All returns every experiment in report order.
func All() []Spec {
	return []Spec{
		{ID: "T1", Title: "Mean communication delay per algorithm across instance sizes", Run: T1},
		{ID: "T2", Title: "Solve runtime per algorithm across instance sizes", Run: T2},
		{ID: "T3", Title: "End-to-end simulated latency and deadline misses per algorithm", Run: T3},
		{ID: "T4", Title: "Online reconfiguration policies under churn and mobility", Run: T4},
		{ID: "F1", Title: "Delay vs number of IoT devices", Run: F1},
		{ID: "F2", Title: "Delay vs number of edge devices", Run: F2},
		{ID: "F3", Title: "Feasibility and delay vs capacity tightness", Run: F3},
		{ID: "F4", Title: "Q-learning convergence over episodes", Run: F4},
		{ID: "F5", Title: "Optimality gap vs exact branch-and-bound", Run: F5},
		{ID: "F6", Title: "Delay across topology families", Run: F6},
		{ID: "F7", Title: "Dynamic reconfiguration under mobility and edge failure", Run: F7},
		{ID: "F8", Title: "RL state-signal ablation", Run: F8},
		{ID: "F9", Title: "Link-level congestion and congestion-aware refinement", Run: F9},
		{ID: "F10", Title: "Delay vs gateway density (access-network provisioning)", Run: F10},
		{ID: "F11", Title: "Q-learning design-choice ablation", Run: F11},
		{ID: "F12", Title: "Routing ablation: single path vs congestion-aware multipath", Run: F12},
		{ID: "F13", Title: "Objective trade-off: total delay vs min-max fairness", Run: F13},
		{ID: "F14", Title: "Single-failure resilience by topology family", Run: F14},
		{ID: "F15", Title: "Reconfiguration frequency trade-off under mobility", Run: F15},
		{ID: "F16", Title: "Cloud offload vs capacity tightness", Run: F16},
		{ID: "F17", Title: "Delay attribution by phase vs capacity tightness", Run: F17},
	}
}

// ByID finds an experiment.
func ByID(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiment: unknown id %q", id)
}

// Result is one spec's outcome from RunAll.
type Result struct {
	Spec   Spec
	Tables []*Table
	// Elapsed is the spec's own wall-clock time; under a parallel RunAll
	// the sum of Elapsed values exceeds the batch's wall-clock time.
	Elapsed time.Duration
	// Err is the spec's failure, if any; other specs still run.
	Err error
}

// RunAll executes the given specs — the suite runner behind `tacbench -exp
// all` — with up to o.Workers specs in flight at once (<= 0 means all
// cores, 1 runs the suite sequentially). Every spec derives its randomness
// from o.Seed alone, so results are identical at any parallelism; specs
// additionally parallelize their own replication cells with the same
// o.Workers bound. Results are returned in spec order, one per spec, with
// per-spec failures recorded in Result.Err rather than aborting the batch.
func RunAll(specs []Spec, o Options) []Result {
	w := par.Workers(o.Workers)
	return par.Map(w, len(specs), func(i int) Result {
		obs.Emit(o.Progress, "spec-start", map[string]interface{}{"id": specs[i].ID, "title": specs[i].Title})
		ph := o.Trace.Child(specs[i].ID)
		ph.SetAttr("title", specs[i].Title)
		start := wallMs.NowMs()
		tables, err := specs[i].Run(o)
		elapsedMs := wallMs.NowMs() - start
		ph.SetAttr("ok", err == nil)
		ph.End()
		done := map[string]interface{}{
			"id": specs[i].ID, "elapsed_ms": elapsedMs, "ok": err == nil,
		}
		if err != nil {
			done["error"] = err.Error()
		}
		obs.Emit(o.Progress, "spec-done", done)
		return Result{Spec: specs[i], Tables: tables, Elapsed: time.Duration(elapsedMs * float64(time.Millisecond)), Err: err}
	})
}

// sizesFor returns the IoT-count sweep for size-scaling experiments.
func sizesFor(o Options) []int {
	if o.Quick {
		return []int{20, 40}
	}
	return []int{50, 100, 200, 400}
}

// T1 compares mean per-device delay for every algorithm across instance
// sizes (m = n/10, hierarchical topology, rho = 0.7).
func T1(o Options) ([]*Table, error) {
	o = o.withDefaults()
	sizes := sizesFor(o)
	tab := &Table{
		ID:     "T1",
		Title:  "mean per-device delay (ms), hierarchical topology, rho=0.7",
		Header: append([]string{"algorithm"}, sizeHeaders(sizes)...),
		Note:   fmt.Sprintf("%d replications per cell; lower is better", o.Reps),
	}
	cols := make(map[string][]string)
	for _, n := range sizes {
		sc := Scenario{NumIoT: n, NumEdge: maxInt(n/10, 2), Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("T1-%d", n))}
		res, err := o.compare(sc, DefaultAlgorithms)
		if err != nil {
			return nil, err
		}
		for _, st := range res {
			cols[st.Name] = append(cols[st.Name], statCell(st))
		}
	}
	for _, name := range DefaultAlgorithms {
		row := append([]string{name}, cols[name]...)
		tab.Rows = append(tab.Rows, row)
	}
	return []*Table{tab}, nil
}

// T2 reports mean wall-clock solve time per algorithm across sizes.
func T2(o Options) ([]*Table, error) {
	o = o.withDefaults()
	sizes := sizesFor(o)
	tab := &Table{
		ID:     "T2",
		Title:  "mean solve runtime (ms)",
		Header: append([]string{"algorithm"}, sizeHeaders(sizes)...),
		Note:   "wall clock on this machine; ordering matters more than magnitude",
	}
	cols := make(map[string][]string)
	for _, n := range sizes {
		sc := Scenario{NumIoT: n, NumEdge: maxInt(n/10, 2), Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("T2-%d", n))}
		res, err := o.compare(sc, DefaultAlgorithms)
		if err != nil {
			return nil, err
		}
		for _, st := range res {
			cols[st.Name] = append(cols[st.Name], formatFloat(st.MeanRuntimeMs))
		}
	}
	for _, name := range DefaultAlgorithms {
		tab.Rows = append(tab.Rows, append([]string{name}, cols[name]...))
	}
	return []*Table{tab}, nil
}

// T3 runs the end-to-end cluster simulation under each algorithm's
// assignment and reports latency percentiles and deadline misses.
func T3(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m, horizon := 100, 10, 60_000.0
	if o.Quick {
		n, m, horizon = 30, 5, 10_000.0
	}
	tab := &Table{
		ID:     "T3",
		Title:  fmt.Sprintf("end-to-end simulated latency, n=%d m=%d, %.0f s horizon", n, m, horizon/1000),
		Header: []string{"algorithm", "mean ms", "p50 ms", "p95 ms", "p99 ms", "miss %", "max util", "drops"},
		Note:   fmt.Sprintf("%d replications; payload-aware uplink, FIFO edge queues, edges provisioned for ~55%% peak utilization", o.Reps),
	}
	reg := assign.NewRegistry()
	for _, name := range DefaultAlgorithms {
		var mean, p50, p95, p99, miss, util stats.Welford
		drops := 0
		ok := 0
		for r := 0; r < o.Reps; r++ {
			sc := Scenario{
				NumIoT: n, NumEdge: m, PayloadKB: 4, Rho: 0.6,
				Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("T3-%d", r)),
			}
			b, err := sc.Build()
			if err != nil {
				return nil, err
			}
			a, err := reg.New(name, xrand.SplitSeed(o.Seed, fmt.Sprintf("T3-%s-%d", name, r)))
			if err != nil {
				return nil, err
			}
			got, err := a.Assign(b.Instance)
			if err != nil {
				if errors.Is(err, gap.ErrInfeasible) {
					continue
				}
				return nil, err
			}
			down := topology.NewDelayMatrix(b.Graph, topology.LatencyCost)
			simCfg := cluster.Config{
				UplinkMs:   b.Delay.DelayMs,
				DownlinkMs: down.DelayMs,
				Devices:    b.Devices,
				// Commit 55% of physical capacity to planning:
				// even fully packed edges keep stable queues, so
				// the end-to-end numbers reflect communication
				// delay rather than queueing collapse.
				ServiceRate: ServiceRates(b.Capacity, 0.55),
				Assignment:  got.Of,
				WarmupMs:    horizon / 10,
				Seed:        xrand.SplitSeed(o.Seed, fmt.Sprintf("T3-sim-%s-%d", name, r)),
			}
			s, err := cluster.New(simCfg)
			if err != nil {
				return nil, err
			}
			res, err := s.Run(horizon)
			if err != nil {
				return nil, err
			}
			ok++
			mean.Add(res.Latency.Mean())
			p50.Add(res.Latency.Median())
			p95.Add(res.Latency.P95())
			p99.Add(res.Latency.P99())
			miss.Add(100 * res.MissRate())
			util.Add(maxFloat(res.Utilization()))
			drops += res.Dropped
		}
		if ok == 0 {
			tab.AddRow(name, "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		tab.AddRow(name, mean.Mean(), p50.Mean(), p95.Mean(), p99.Mean(), miss.Mean(), util.Mean(), drops)
	}
	return []*Table{tab}, nil
}

// F1 sweeps the number of IoT devices with the edge count fixed.
func F1(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ns := []int{25, 50, 100, 200, 400}
	m := 10
	if o.Quick {
		ns = []int{20, 40, 80}
		m = 5
	}
	algos := []string{"random", "greedy", "regret-greedy", "local-search", "lagrangian", "qlearning"}
	tab := &Table{
		ID:     "F1",
		Title:  fmt.Sprintf("mean per-device delay (ms) vs n, m=%d fixed", m),
		Header: append([]string{"n"}, algos...),
		Note:   fmt.Sprintf("%d replications per point", o.Reps),
	}
	for _, n := range ns {
		sc := Scenario{NumIoT: n, NumEdge: m, Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F1-%d", n))}
		res, err := o.compare(sc, algos)
		if err != nil {
			return nil, err
		}
		cells := []interface{}{n}
		for _, st := range res {
			cells = append(cells, statCell(st))
		}
		tab.AddRow(cells...)
	}
	return []*Table{tab}, nil
}

// F2 sweeps the number of edge devices with the IoT count fixed.
func F2(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ms := []int{4, 8, 16, 32}
	n := 160
	if o.Quick {
		ms = []int{3, 6, 12}
		n = 48
	}
	algos := []string{"random", "greedy", "regret-greedy", "local-search", "lagrangian", "qlearning"}
	tab := &Table{
		ID:     "F2",
		Title:  fmt.Sprintf("mean per-device delay (ms) vs m, n=%d fixed", n),
		Header: append([]string{"m"}, algos...),
		Note:   fmt.Sprintf("%d replications per point; more edges = shorter paths", o.Reps),
	}
	for _, m := range ms {
		sc := Scenario{NumIoT: n, NumEdge: m, Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F2-%d", m))}
		res, err := o.compare(sc, algos)
		if err != nil {
			return nil, err
		}
		cells := []interface{}{m}
		for _, st := range res {
			cells = append(cells, statCell(st))
		}
		tab.AddRow(cells...)
	}
	return []*Table{tab}, nil
}

// F3 sweeps capacity tightness rho, reporting feasibility rate and delay.
func F3(o Options) ([]*Table, error) {
	o = o.withDefaults()
	rhos := []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
	n, m := 100, 10
	if o.Quick {
		rhos = []float64{0.6, 0.9}
		n, m = 30, 4
	}
	algos := []string{"greedy", "regret-greedy", "local-search", "lagrangian", "qlearning"}
	feas := &Table{
		ID:     "F3",
		Title:  "feasibility rate vs capacity tightness rho",
		Header: append([]string{"rho"}, algos...),
		Note:   "fraction of replications with an overload-free assignment",
	}
	cost := &Table{
		ID:     "F3b",
		Title:  "mean per-device delay (ms) vs rho (feasible replications only)",
		Header: append([]string{"rho"}, algos...),
	}
	for _, rho := range rhos {
		sc := Scenario{NumIoT: n, NumEdge: m, Rho: rho, Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F3-%v", rho))}
		res, err := o.compare(sc, algos)
		if err != nil {
			return nil, err
		}
		fc := []interface{}{rho}
		cc := []interface{}{rho}
		for _, st := range res {
			fc = append(fc, st.FeasibleRate)
			if st.FeasibleRate > 0 {
				cc = append(cc, st.MeanCost)
			} else {
				cc = append(cc, "-")
			}
		}
		feas.AddRow(fc...)
		cost.AddRow(cc...)
	}
	return []*Table{feas, cost}, nil
}

// F4 records the Q-learning convergence curve (best feasible total delay
// found so far, averaged over replications) against episode count, with
// the greedy baseline for reference.
func F4(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m := 100, 10
	episodes := 400
	if o.Quick {
		n, m, episodes = 30, 4, 100
	}
	checkpoints := []int{1, 2, 5, 10, 20, 50, 100, 200, episodes}
	curves := make([][]float64, 0, o.Reps)
	var greedyCost stats.Welford
	for r := 0; r < o.Reps; r++ {
		sc := Scenario{NumIoT: n, NumEdge: m, Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F4-%d", r))}
		b, err := sc.Build()
		if err != nil {
			return nil, err
		}
		q := assign.NewQLearning(xrand.SplitSeed(o.Seed, fmt.Sprintf("F4-q-%d", r)))
		q.Params.Episodes = episodes
		// Disable the regret-greedy warm start so the curve shows the
		// learner's own progress from greedy-level quality downward;
		// production runs keep the warm start (see F11).
		q.Params.NoWarmStart = true
		var curve []float64
		q.SetProgress(obs.ProgressFunc(func(ev obs.IterEvent) { curve = append(curve, ev.BestCost) }))
		if _, err := q.Assign(b.Instance); err != nil && !errors.Is(err, gap.ErrInfeasible) {
			return nil, err
		}
		if len(curve) > 0 {
			curves = append(curves, curve)
		}
		if g, err := assign.NewGreedy().Assign(b.Instance); err == nil {
			greedyCost.Add(b.Instance.TotalCost(g))
		}
	}
	tab := &Table{
		ID:     "F4",
		Title:  fmt.Sprintf("Q-learning convergence, n=%d m=%d (best total delay so far, ms)", n, m),
		Header: []string{"episode", "qlearning best", "greedy (ref)"},
		Note:   fmt.Sprintf("mean over %d replications; warm start disabled to expose learning", len(curves)),
	}
	for _, cp := range checkpoints {
		if cp > episodes {
			continue
		}
		var v stats.Welford
		for _, c := range curves {
			if cp-1 < len(c) && !math.IsInf(c[cp-1], 1) {
				v.Add(c[cp-1])
			}
		}
		if v.N() == 0 {
			tab.AddRow(cp, "-", greedyCost.Mean())
			continue
		}
		tab.AddRow(cp, v.Mean(), greedyCost.Mean())
	}
	return []*Table{tab}, nil
}

// F5 measures heuristic optimality gaps against branch-and-bound on small
// instances.
func F5(o Options) ([]*Table, error) {
	o = o.withDefaults()
	ns := []int{8, 10, 12}
	if o.Quick {
		ns = []int{6, 8}
	}
	algos := []string{"greedy", "local-search", "lns", "lagrangian", "lp-rounding", "qlearning"}
	tab := &Table{
		ID:     "F5",
		Title:  "mean optimality gap (%) vs exact B&B, m=3, rho=0.8",
		Header: append([]string{"n"}, algos...),
		Note:   fmt.Sprintf("%d replications; gap = (heuristic - optimal) / optimal", o.Reps),
	}
	reg := assign.NewRegistry()
	for _, n := range ns {
		gapPct := make(map[string]*stats.Welford, len(algos))
		for _, a := range algos {
			gapPct[a] = &stats.Welford{}
		}
		for r := 0; r < o.Reps; r++ {
			sc := Scenario{NumIoT: n, NumEdge: 3, Rho: 0.8, Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F5-%d-%d", n, r))}
			b, err := sc.Build()
			if err != nil {
				return nil, err
			}
			opt, err := gap.BranchAndBound(b.Instance)
			if err != nil {
				if errors.Is(err, gap.ErrInfeasible) {
					continue
				}
				return nil, err
			}
			for _, name := range algos {
				a, err := reg.New(name, xrand.SplitSeed(o.Seed, fmt.Sprintf("F5-%s-%d-%d", name, n, r)))
				if err != nil {
					return nil, err
				}
				got, err := a.Assign(b.Instance)
				if err != nil {
					continue
				}
				g := (b.Instance.TotalCost(got) - opt.Cost) / opt.Cost * 100
				if g < 0 && g > -1e-6 {
					g = 0 // floating-point noise around the optimum
				}
				gapPct[name].Add(g)
			}
		}
		cells := []interface{}{n}
		for _, a := range algos {
			if gapPct[a].N() == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, gapPct[a].Mean())
			}
		}
		tab.AddRow(cells...)
	}
	return []*Table{tab}, nil
}

// F6 compares algorithms across topology families.
func F6(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m := 100, 10
	if o.Quick {
		n, m = 30, 4
	}
	algos := []string{"random", "greedy", "local-search", "qlearning"}
	tab := &Table{
		ID:     "F6",
		Title:  fmt.Sprintf("mean per-device delay (ms) by topology family, n=%d m=%d", n, m),
		Header: append([]string{"family"}, algos...),
		Note:   fmt.Sprintf("%d replications per family", o.Reps),
	}
	for _, fam := range topology.Families() {
		sc := Scenario{
			Family: fam, NumIoT: n, NumEdge: m,
			Seed: xrand.SplitSeed(o.Seed, "F6-"+string(fam)),
		}
		res, err := o.compare(sc, algos)
		if err != nil {
			return nil, err
		}
		cells := []interface{}{string(fam)}
		for _, st := range res {
			cells = append(cells, statCell(st))
		}
		tab.AddRow(cells...)
	}
	return []*Table{tab}, nil
}

// F8 ablates the RL state signal: load-vector quantization levels,
// on-policy vs off-policy, and the stateless bandit.
func F8(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m := 100, 10
	if o.Quick {
		n, m = 30, 4
	}
	type variant struct {
		name string
		mk   func(seed int64) assign.Assigner
	}
	// The regret-greedy warm start is disabled for every variant so the
	// table discriminates the learners themselves; F11 quantifies what
	// the warm start adds back.
	qVariant := func(levels int) func(int64) assign.Assigner {
		return func(s int64) assign.Assigner {
			q := assign.NewQLearning(s)
			q.Params.LoadLevels = levels
			q.Params.NoWarmStart = true
			return q
		}
	}
	variants := []variant{
		{"bandit (stateless)", func(s int64) assign.Assigner { return assign.NewBandit(s) }},
		{"qlearning levels=1", qVariant(1)},
		{"qlearning levels=2", qVariant(2)},
		{"qlearning levels=4", qVariant(4)},
		{"qlearning levels=8", qVariant(8)},
		{"sarsa levels=4", func(s int64) assign.Assigner {
			a := assign.NewSARSA(s)
			a.Params.NoWarmStart = true
			return a
		}},
		{"expected-sarsa levels=4", func(s int64) assign.Assigner {
			a := assign.NewExpectedSARSA(s)
			a.Params.NoWarmStart = true
			return a
		}},
		{"double-q levels=4", func(s int64) assign.Assigner {
			a := assign.NewDoubleQLearning(s)
			a.Params.NoWarmStart = true
			return a
		}},
		{"nstep-q n=3 levels=4", func(s int64) assign.Assigner {
			a := assign.NewNStepQLearning(s)
			a.Params.NoWarmStart = true
			return a
		}},
	}
	tab := &Table{
		ID:     "F8",
		Title:  fmt.Sprintf("RL ablation: mean per-device delay (ms), n=%d m=%d, rho=0.85", n, m),
		Header: []string{"variant", "mean delay", "feasible rate", "runtime ms"},
		Note:   fmt.Sprintf("%d replications; warm start disabled for all variants; finer load quantization = richer state", o.Reps),
	}
	for _, v := range variants {
		var cost, rt stats.Welford
		feasible := 0
		for r := 0; r < o.Reps; r++ {
			sc := Scenario{NumIoT: n, NumEdge: m, Rho: 0.85, Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F8-%d", r))}
			b, err := sc.Build()
			if err != nil {
				return nil, err
			}
			a := v.mk(xrand.SplitSeed(o.Seed, fmt.Sprintf("F8-%s-%d", v.name, r)))
			start := wallMs.NowMs()
			got, err := a.Assign(b.Instance)
			rt.Add(wallMs.NowMs() - start)
			if err != nil {
				if errors.Is(err, gap.ErrInfeasible) {
					continue
				}
				return nil, err
			}
			feasible++
			cost.Add(b.Instance.MeanCost(got))
		}
		if feasible == 0 {
			tab.AddRow(v.name, "-", 0.0, rt.Mean())
			continue
		}
		tab.AddRow(v.name, cost.Mean(), float64(feasible)/float64(o.Reps), rt.Mean())
	}
	return []*Table{tab}, nil
}

// F10 sweeps gateway density with devices and edges fixed: denser access
// networks shorten the wireless-to-wired hop for every algorithm, while
// the gap between topology-aware assignment and random shrinks (with many
// gateways every edge is "close"). The infrastructure-provisioning view of
// topology awareness.
func F10(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m := 120, 8
	gws := []int{4, 8, 16, 32, 64}
	if o.Quick {
		n, m = 30, 4
		gws = []int{4, 12}
	}
	algos := []string{"random", "greedy", "qlearning"}
	tab := &Table{
		ID:     "F10",
		Title:  fmt.Sprintf("mean per-device delay (ms) vs gateway count, n=%d m=%d", n, m),
		Header: append(append([]string{"gateways"}, algos...), "random/qlearning"),
		Note:   fmt.Sprintf("%d replications; last column is the robustness ratio", o.Reps),
	}
	for _, gw := range gws {
		sc := Scenario{
			NumIoT: n, NumEdge: m, NumGateways: gw,
			Seed: xrand.SplitSeed(o.Seed, fmt.Sprintf("F10-%d", gw)),
		}
		res, err := o.compare(sc, algos)
		if err != nil {
			return nil, err
		}
		cells := []interface{}{gw}
		byName := map[string]float64{}
		for _, st := range res {
			cells = append(cells, st.MeanCost)
			byName[st.Name] = st.MeanCost
		}
		ratio := math.NaN()
		if byName["qlearning"] > 0 {
			ratio = byName["random"] / byName["qlearning"]
		}
		cells = append(cells, ratio)
		tab.AddRow(cells...)
	}
	return []*Table{tab}, nil
}

func sizeHeaders(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = fmt.Sprintf("n=%d", n)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxFloat(xs []float64) float64 {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}
