package main

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	taccc "taccc"
)

// pipelineRun is one pass of the paper's pipeline through the public
// facade, in the order tacsolve's scenario mode and tacsim call it:
// Scenario.Build, Assign, the post-solve evaluation (with LowerBound) and,
// for the simulation workload, the downlink matrix, NewSimulator and Run.
type pipelineRun struct {
	seed int64

	// Wall time of the timed layer calls and of the whole pass, in ms,
	// read from outside the calls.
	buildMs, solveMs, downlinkMs, simNewMs, simRunMs, wallMs float64
	// allocBytes is the heap allocated by the whole pass; solveAllocBytes
	// by Assign alone (traced passes only).
	allocBytes, solveAllocBytes uint64

	built *taccc.BuiltScenario
	got   *taccc.Assignment
	down  *taccc.DelayMatrix

	total, mean, max, lowerBound, imbalance float64
	feasible                                bool

	sim *taccc.SimResult
	obs *simObs
}

// setupMs is the set-up share of the pass: building the scenario and, on
// the simulation workload, the downlink matrix and the simulator.
func (r *pipelineRun) setupMs() float64 { return r.buildMs + r.downlinkMs + r.simNewMs }

// planes selects the simulator's observability planes.
type planes struct{ metrics, slo, spans bool }

var allPlanes = planes{metrics: true, slo: true, spans: true}

// simObs is the observability wiring tacsim sets up under -archive: a
// metrics registry that also receives solver progress, an SLO tracker with
// its own gauge registry, and one event stream carrying solver iteration
// events and sampled request spans. In process the archive files are
// discarding JSONL sinks, so the encoding cost stays and the disk writes go.
type simObs struct {
	metrics *taccc.MetricsRegistry
	slo     *taccc.SLOTracker
	events  *countingSink
}

func newSimObs(s *simSpec, p planes) (*simObs, error) {
	o := &simObs{}
	if p.metrics {
		o.metrics = taccc.NewMetricsRegistry()
	}
	if p.slo {
		objectives, err := taccc.ParseSLOObjectives(s.slo)
		if err != nil {
			return nil, fmt.Errorf("parsing -slo: %w", err)
		}
		o.slo, err = taccc.NewSLOTracker(taccc.SLOConfig{
			WindowMs:   s.sloWindowS * 1000,
			Objectives: objectives,
			Sink:       taccc.NewJSONLSink(io.Discard),
			Metrics:    taccc.NewMetricsRegistry(),
		})
		if err != nil {
			return nil, fmt.Errorf("building SLO tracker: %w", err)
		}
	}
	if p.spans {
		o.events = &countingSink{next: taccc.NewJSONLSink(io.Discard)}
	}
	return o, nil
}

// progress returns the solver progress sinks tacsim attaches under -archive.
func (o *simObs) progress() []taccc.ProgressSink {
	if o == nil {
		return nil
	}
	var sinks []taccc.ProgressSink
	if o.events != nil {
		sinks = append(sinks, taccc.EventProgress(o.events))
	}
	if o.metrics != nil {
		sinks = append(sinks, taccc.MetricsProgress(o.metrics))
	}
	return sinks
}

// config is tacsim's simulator configuration for one solved scenario.
func (o *simObs) config(s *simSpec, built *taccc.BuiltScenario, of []int, down *taccc.DelayMatrix, seed int64) taccc.SimConfig {
	cfg := taccc.SimConfig{
		UplinkMs:    built.Delay.DelayMs,
		DownlinkMs:  down.DelayMs,
		Devices:     built.Devices,
		ServiceRate: taccc.ServiceRates(built.Capacity, 0.7),
		Assignment:  of,
		WarmupMs:    s.warmupS * 1000,
		Metrics:     o.metrics,
		SLO:         o.slo,
		Seed:        seed,
	}
	if o.events != nil {
		cfg.Spans = o.events
		cfg.TraceSampleRate = s.traceSample
	}
	return cfg
}

// countingSink forwards events and counts the spans among them.
type countingSink struct {
	next  taccc.ObsSink
	spans atomic.Int64
}

func (c *countingSink) Emit(e taccc.ObsEvent) {
	if e.Kind == "span" {
		c.spans.Add(1)
	}
	c.next.Emit(e)
}

// readAlloc returns the bytes allocated on the heap so far.
func readAlloc() uint64 {
	var ms runtime.MemStats   //lint:allow resmon the benchmark measures the pipeline's heap allocation from outside it
	runtime.ReadMemStats(&ms) //lint:allow resmon same measurement
	return ms.TotalAlloc
}

// runPipeline runs one pass. root is the traced pass's parent phase (nil
// for an untraced pass: every phase call is then a no-op), and extra an
// additional solver progress sink (nil for none).
func runPipeline(w *workload, seed int64, workers int, root *taccc.Phase, extra taccc.ProgressSink) (*pipelineRun, error) {
	r := &pipelineRun{seed: seed}
	if w.sim != nil {
		o, err := newSimObs(w.sim, allPlanes)
		if err != nil {
			return nil, err
		}
		r.obs = o
	}
	a, err := taccc.NewAlgorithmRegistry().New(w.algo, seed)
	if err != nil {
		return nil, err
	}
	if sink := taccc.MultiProgress(append(r.obs.progress(), extra)...); sink != nil {
		taccc.WithProgress(a, sink)
	}

	clock := taccc.WallClock()
	since := func(t float64) float64 { return clock.NowMs() - t }
	allocStart := readAlloc()
	start := clock.NowMs()

	ph := root.Child("build")
	built, err := w.scenario(seed, workers, ph).Build()
	ph.End()
	if err != nil {
		return nil, fmt.Errorf("building scenario: %w", err)
	}
	r.buildMs = since(start)
	r.built = built
	in := built.Instance

	t := clock.NowMs()
	ph = root.Child("solve")
	taccc.WithPhases(a, ph)
	var solveAlloc uint64
	if root != nil {
		solveAlloc = readAlloc()
	}
	got, err := a.Assign(in)
	if root != nil {
		r.solveAllocBytes = readAlloc() - solveAlloc
	}
	ph.End()
	r.solveMs = since(t)
	if err != nil {
		return nil, fmt.Errorf("solving with %s: %w", w.algo, err)
	}
	r.got = got

	ph = root.Child("lower-bound")
	r.lowerBound = taccc.LowerBound(in)
	ph.End()

	ph = root.Child("evaluate")
	r.total = in.TotalCost(got)
	r.mean = in.MeanCost(got)
	r.max = in.MaxCost(got)
	r.imbalance = in.Imbalance(got)
	r.feasible = in.Feasible(got)
	_ = in.Utilization(got)
	ph.End()

	if s := w.sim; s != nil {
		t = clock.NowMs()
		ph = root.Child("downlink-matrix")
		r.down = taccc.NewDelayMatrixWorkers(built.Graph, taccc.LatencyCost, workers)
		ph.End()
		r.downlinkMs = since(t)

		t = clock.NowMs()
		ph = root.Child("cluster-new")
		sim, err := taccc.NewSimulator(r.obs.config(s, built, got.Of, r.down, seed))
		ph.End()
		r.simNewMs = since(t)
		if err != nil {
			return nil, fmt.Errorf("building simulator: %w", err)
		}

		t = clock.NowMs()
		ph = root.Child("cluster-run")
		res, err := sim.Run(s.durationS * 1000)
		ph.End()
		r.simRunMs = since(t)
		if err != nil {
			return nil, fmt.Errorf("simulating: %w", err)
		}
		r.sim = res

		// The report tacsim prints after the run: the quantiles sort the
		// latency sample, the rest is cheap.
		ph = root.Child("cluster-report")
		_ = res.Latency.Median()
		_ = res.MissRate()
		_ = res.Utilization()
		_ = r.obs.slo.Results()
		ph.End()
	}
	r.wallMs = since(start)
	r.allocBytes = readAlloc() - allocStart
	return r, nil
}

// repeatSetup re-runs the set-up of pass r — Build and, on the simulation
// workload, the downlink matrix and NewSimulator — for as long as the
// repeats stay cheap, so that set-up time gets several samples per
// iteration even where the pipeline is long. It returns their times in ms.
func repeatSetup(w *workload, r *pipelineRun, workers int) ([]float64, error) {
	const budgetMs, maxRepeats = 250, 8
	clock := taccc.WallClock()
	var times []float64
	spent := 0.0
	for len(times) < maxRepeats && spent+r.setupMs() < budgetMs {
		var o *simObs
		if w.sim != nil {
			var err error
			if o, err = newSimObs(w.sim, allPlanes); err != nil {
				return nil, err
			}
		}
		start := clock.NowMs()
		built, err := w.scenario(r.seed, workers, nil).Build()
		if err != nil {
			return nil, fmt.Errorf("building scenario: %w", err)
		}
		if w.sim != nil {
			down := taccc.NewDelayMatrixWorkers(built.Graph, taccc.LatencyCost, workers)
			if _, err := taccc.NewSimulator(o.config(w.sim, built, r.got.Of, down, r.seed)); err != nil {
				return nil, fmt.Errorf("building simulator: %w", err)
			}
		}
		d := clock.NowMs() - start
		times = append(times, d)
		spent += d
	}
	return times, nil
}
