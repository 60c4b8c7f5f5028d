package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	taccc "taccc"
)

const (
	// hardStopS stops starting new iterations, so a run on a machine far
	// slower than expected still exits well inside its time limit.
	hardStopS = 120
	// cliTimeout bounds one run of the shipped binary.
	cliTimeout = 90 * time.Second
)

// bench runs one workload: at least one pass over its instances, and more
// passes until the measuring time is spent. Each iteration runs the
// in-process pipeline with tracing off, checks it, runs the shipped
// binary on the same instance and cross-checks the two; with tracing on
// it then repeats the pipeline traced, for the per-layer figures.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	workers int
	binDir  string
	tmpDir  string
	log     io.Writer
}

// outcome collects every iteration's figures by metric name.
type outcome struct {
	attempted, failed int
	samples           map[string][]float64
	// Quality sums over the first pass (distinct instances only).
	instances                int
	sumTotal, sumLB, sumMean float64
}

func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// untracedPass is what an iteration keeps of its untraced pass once the
// scenario's matrices are released.
type untracedPass struct {
	// setupMs holds the pass's own set-up time, then any repeats.
	setupMs                 []float64
	solveMs, wallMs         float64
	allocBytes              uint64
	total, lowerBound, mean float64
	hash                    uint64
	sim                     *taccc.SimResult
	simRunMs                float64
	cliLines                []string
	checkErrs               []error
}

func (b *bench) run() *outcome {
	o := &outcome{samples: make(map[string][]float64)}
	clock := taccc.WallClock()
	start := clock.NowMs()
	for iter := 0; ; iter++ {
		elapsed := (clock.NowMs() - start) / 1000
		if iter >= b.w.instances && elapsed >= b.seconds {
			break
		}
		if elapsed >= hardStopS {
			fmt.Fprintf(b.log, "perfbench: stopping after %d iterations at the %d s limit\n", iter, hardStopS)
			break
		}
		seed := instanceSeed(b.seed, iter%b.w.instances)
		o.attempted++
		if err := b.iterate(o, iter, seed); err != nil {
			o.failed++
			fmt.Fprintf(b.log, "perfbench: %s instance seed %d: %v\n", b.w.name, seed, err)
		}
	}
	return o
}

func (b *bench) iterate(o *outcome, iter int, seed int64) error {
	u, err := b.untraced(seed)
	if err != nil {
		return err
	}
	errs := u.checkErrs
	runtime.GC()
	cli, err := b.runCLI(seed, iter)
	if err != nil {
		errs = append(errs, err)
	} else if err := crossCheck(u.cliLines, cli.stdout); err != nil {
		errs = append(errs, err)
	}
	var layers []figure
	if b.trace && len(errs) == 0 {
		layers, err = b.traced(seed, u, cli.wallMs, iter == 0)
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	fmt.Fprintf(b.log, "perfbench: %s iteration %d seed %d: setup %.4f s, solve %.4f s, wall %.4f s, cli %.4f s\n",
		b.w.name, iter, seed, u.setupMs[0]/1000, u.solveMs/1000, u.wallMs/1000, cli.wallMs/1000)

	for _, ms := range u.setupMs {
		o.add("setup_s", ms/1000)
	}
	o.add("solve_s", u.solveMs/1000)
	o.add("wall_s", u.wallMs/1000)
	o.add("cli_wall_s", cli.wallMs/1000)
	o.add("alloc_mb", float64(u.allocBytes)/1e6)
	o.add("cli_max_rss_mb", cli.maxRSSMB)
	if iter < b.w.instances {
		o.instances++
		o.sumTotal += u.total
		o.sumLB += u.lowerBound
		o.sumMean += u.mean
	}
	for _, f := range layers {
		o.add(f.name, f.value)
	}
	return nil
}

// untraced runs and checks the pass whose timings are the end-to-end
// figures. The scenario itself is dropped on return.
func (b *bench) untraced(seed int64) (*untracedPass, error) {
	runtime.GC()
	r, err := runPipeline(b.w, seed, b.workers, nil, nil)
	if err != nil {
		return nil, err
	}
	repeats, err := repeatSetup(b.w, r, b.workers)
	if err != nil {
		return nil, err
	}
	u := &untracedPass{
		setupMs:    append([]float64{r.setupMs()}, repeats...),
		solveMs:    r.solveMs,
		wallMs:     r.wallMs,
		allocBytes: r.allocBytes,
		total:      r.total,
		lowerBound: r.lowerBound,
		mean:       r.mean,
		hash:       assignmentHash(r.got.Of),
		sim:        r.sim,
		simRunMs:   r.simRunMs,
		checkErrs:  checkRun(b.w, r),
	}
	u.cliLines = cliLines(b.w, r)
	return u, nil
}

type cliRun struct {
	stdout   string
	wallMs   float64
	maxRSSMB float64
}

// runCLI runs the shipped binary on one instance and times it from spawn
// to exit.
func (b *bench) runCLI(seed int64, iter int) (*cliRun, error) {
	archive := filepath.Join(b.tmpDir, "archive-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(iter))
	defer os.RemoveAll(archive)
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.binDir, b.w.tool), b.w.cliArgs(seed, b.workers, archive)...)
	cmd.Dir = b.tmpDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	clock := taccc.WallClock()
	start := clock.NowMs()
	err := cmd.Run()
	wall := clock.NowMs() - start
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %s", b.w.tool, err, bytes.TrimSpace(stderr.Bytes()))
	}
	run := &cliRun{stdout: stdout.String(), wallMs: wall}
	// The child's peak resident set, from its rusage (KiB on Linux).
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSMB = float64(ru.Maxrss) * 1024 / 1e6
	}
	return run, nil
}

// iterCounter counts solver iteration events, and the improvements among
// them: iterations after which the incumbent cost is lower than before.
type iterCounter struct {
	mu           sync.Mutex
	iterations   int
	improvements int
	last         float64
}

func (c *iterCounter) OnIter(ev taccc.IterEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.iterations > 0 && ev.BestCost < c.last {
		c.improvements++
	}
	c.last = ev.BestCost
	c.iterations++
}

// traced repeats the iteration's pass with the pipeline tracer on and
// derives the per-layer figures from its spans. Tracing must not change
// the answer: the assignment and the simulation result are compared with
// the untraced pass. extras adds the figures measured once per run.
func (b *bench) traced(seed int64, u *untracedPass, cliWallMs float64, extras bool) ([]figure, error) {
	runtime.GC()
	spans := &taccc.SpanCollector{}
	root := taccc.NewTracer(spans, taccc.WallClock()).Root("pipeline")
	iters := &iterCounter{}
	r, err := runPipeline(b.w, seed, b.workers, root, iters)
	root.End()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if assignmentHash(r.got.Of) != u.hash {
		return nil, errors.New("the traced pass returned a different assignment")
	}
	if !sameSimResult(r.sim, u.sim) {
		return nil, errors.New("the traced pass returned a different simulation result")
	}
	figs := layerFigures(r, spans.Spans(), iters, u, cliWallMs)
	if extras {
		more, err := b.extraFigures(r)
		if err != nil {
			return nil, err
		}
		figs = append(figs, more...)
	}
	return figs, nil
}

// figure is one per-layer value of one iteration.
type figure struct {
	name  string
	value float64
}

// layerSpans maps each leaf span of a traced pass to its module. Build's
// children come from the program's own pipeline tracing; the rest are the
// benchmark's spans around each facade call.
var layerSpans = []struct{ span, module string }{
	{"topology", "topology"},
	{"delay-matrix", "topology"},
	{"downlink-matrix", "topology"},
	{"workload", "workload"},
	{"instance", "gap"},
	{"lower-bound", "gap"},
	{"evaluate", "gap"},
	{"solve", "assign"},
	{"cluster-new", "cluster"},
	{"cluster-run", "cluster"},
	{"cluster-report", "cluster"},
}

var modules = []string{"topology", "workload", "gap", "assign", "cluster"}

func layerFigures(r *pipelineRun, spans []taccc.Span, iters *iterCounter, u *untracedPass, cliWallMs float64) []figure {
	ms := make(map[string]float64)
	dijkstra := 0.0
	for _, sp := range spans {
		ms[sp.Name] += sp.DurationMs()
		if v, ok := sp.AttrNum("items"); ok && sp.Name == "shard" {
			dijkstra += v
		}
	}
	if r.down != nil {
		dijkstra += float64(r.down.NumEdge())
	}
	in := r.built.Instance
	share := make(map[string]float64)
	covered := 0.0
	for _, l := range layerSpans {
		share[l.module] += ms[l.span]
		covered += ms[l.span]
	}
	ratio := func(v, of float64) float64 {
		if of == 0 {
			return 0
		}
		return v / of
	}
	pct := func(v, of float64) float64 { return 100 * ratio(v, of) }
	figs := []figure{
		{"topology.generate_ms", ms["topology"]},
		{"topology.delay_matrix_ms", ms["delay-matrix"]},
		{"topology.downlink_matrix_ms", ms["downlink-matrix"]},
		{"topology.nodes", float64(r.built.Graph.NumNodes())},
		{"topology.links", float64(r.built.Graph.NumLinks())},
		{"topology.dijkstra_runs", dijkstra},
		{"workload.generate_ms", ms["workload"]},
		{"gap.instance_ms", ms["instance"]},
		{"gap.matrix_bytes", float64(2 * in.N() * in.M() * 8)},
		{"gap.lower_bound_ms", ms["lower-bound"]},
		{"gap.evaluate_ms", ms["evaluate"]},
		{"assign.solve_ms", ms["solve"]},
		{"assign.alloc_mb", float64(r.solveAllocBytes) / 1e6},
		{"assign.iterations", float64(iters.iterations)},
		{"assign.improvements", float64(iters.improvements)},
		{"assign.improve_ratio", ratio(float64(iters.improvements), float64(iters.iterations))},
		{"assign.ns_per_iter", 1e6 * ratio(ms["solve"], float64(iters.iterations))},
		{"assign.phase.construction_ms", ms["construction"]},
		{"assign.phase.improvement_ms", ms["improvement"]},
		{"cluster.new_ms", ms["cluster-new"]},
		{"cluster.run_ms", ms["cluster-run"]},
		{"cli.overhead_ms", cliWallMs - u.wallMs},
		{"trace.coverage_pct", pct(covered, r.wallMs)},
		{"trace.overhead_pct", pct(r.wallMs-u.wallMs, u.wallMs)},
	}
	for _, m := range modules {
		figs = append(figs, figure{"share." + m + "_pct", pct(share[m], r.wallMs)})
	}
	var requests, spansEmitted, sloWindows, reqPerS, p99, missRate float64
	if r.sim != nil {
		requests = float64(r.obs.metrics.Snapshot().Counters["cluster.requests_sent"])
		spansEmitted = float64(r.obs.events.spans.Load())
		if res := r.obs.slo.Results(); len(res) > 0 {
			sloWindows = float64(res[0].Windows)
		}
		reqPerS = float64(u.sim.Completed+u.sim.Dropped) / (u.simRunMs / 1000)
		p99 = u.sim.Latency.P99()
		missRate = u.sim.MissRate()
	}
	return append(figs,
		figure{"cluster.requests", requests},
		figure{"cluster.ns_per_request", 1e6 * ratio(ms["cluster-run"], requests)},
		figure{"obs.spans_emitted", spansEmitted},
		figure{"obs.slo_windows", sloWindows},
		figure{"sim_req_per_s", reqPerS},
		figure{"sim_p99_ms", p99},
		figure{"sim_miss_rate", missRate},
	)
}

// extraFigures measures, once per run, what needs passes of its own: the
// delay matrix at one worker and at the run's worker count, and the
// simulation with each observability plane on alone and with all off.
func (b *bench) extraFigures(r *pipelineRun) ([]figure, error) {
	clock := taccc.WallClock()
	cost := taccc.LatencyCost
	if b.w.sim != nil {
		cost = taccc.PayloadCost(b.w.sim.payloadKB)
	}
	timeMatrix := func(workers int) float64 {
		runtime.GC()
		start := clock.NowMs()
		taccc.NewDelayMatrixWorkers(r.built.Graph, cost, workers)
		return clock.NowMs() - start
	}
	w1 := timeMatrix(1)
	wn := timeMatrix(b.workers)
	figs := []figure{
		{"topology.delay_matrix_w1_ms", w1},
		{"par.delay_matrix_speedup", w1 / wn},
	}
	off, overhead, err := b.planeOverheads(r)
	if err != nil {
		return nil, err
	}
	return append(figs,
		figure{"cluster.run_off_ms", off},
		figure{"obs.metrics_overhead_pct", overhead[0]},
		figure{"obs.slo_overhead_pct", overhead[1]},
		figure{"obs.spans_overhead_pct", overhead[2]},
		figure{"obs.planes_overhead_pct", overhead[3]},
	), nil
}

// planeOverheads times Run with all planes off, with metrics, SLO and
// spans each on alone, and with all on, twice in mirrored order, keeping
// each set's fastest run. It returns the all-off time and each set's cost
// over it in percent; on the solve workloads there is no simulation and
// every figure is 0.
func (b *bench) planeOverheads(r *pipelineRun) (float64, [4]float64, error) {
	var overhead [4]float64
	s := b.w.sim
	if s == nil {
		return 0, overhead, nil
	}
	sets := []planes{{}, {metrics: true}, {slo: true}, {spans: true}, allPlanes}
	best := make([]float64, len(sets))
	order := []int{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	clock := taccc.WallClock()
	for _, k := range order {
		o, err := newSimObs(s, sets[k])
		if err != nil {
			return 0, overhead, err
		}
		sim, err := taccc.NewSimulator(o.config(s, r.built, r.got.Of, r.down, r.seed))
		if err != nil {
			return 0, overhead, fmt.Errorf("building simulator: %w", err)
		}
		runtime.GC()
		start := clock.NowMs()
		if _, err := sim.Run(s.durationS * 1000); err != nil {
			return 0, overhead, fmt.Errorf("simulating: %w", err)
		}
		if d := clock.NowMs() - start; best[k] == 0 || d < best[k] {
			best[k] = d
		}
	}
	for i := range overhead {
		overhead[i] = 100 * (best[i+1] - best[0]) / best[0]
	}
	return best[0], overhead, nil
}
