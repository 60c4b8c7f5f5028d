package taccc_test

// One benchmark per evaluation table/figure (T1..T3, F1..F8) plus
// micro-benchmarks for the hot paths they exercise. The experiment benches
// run in quick mode with one replication per iteration; use cmd/tacbench
// for full-fidelity numbers.

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	taccc "taccc"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, err := taccc.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(taccc.ExperimentOptions{Quick: true, Reps: 1, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1AlgorithmComparison(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkT2Runtime(b *testing.B)             { benchExperiment(b, "T2") }
func BenchmarkT3EndToEnd(b *testing.B)            { benchExperiment(b, "T3") }
func BenchmarkT4OnlinePolicies(b *testing.B)      { benchExperiment(b, "T4") }
func BenchmarkF1ScaleIoT(b *testing.B)            { benchExperiment(b, "F1") }
func BenchmarkF2ScaleEdge(b *testing.B)           { benchExperiment(b, "F2") }
func BenchmarkF3Tightness(b *testing.B)           { benchExperiment(b, "F3") }
func BenchmarkF4Convergence(b *testing.B)         { benchExperiment(b, "F4") }
func BenchmarkF5Gap(b *testing.B)                 { benchExperiment(b, "F5") }
func BenchmarkF6Topology(b *testing.B)            { benchExperiment(b, "F6") }
func BenchmarkF7Dynamic(b *testing.B)             { benchExperiment(b, "F7") }
func BenchmarkF8Ablation(b *testing.B)            { benchExperiment(b, "F8") }
func BenchmarkF9Congestion(b *testing.B)          { benchExperiment(b, "F9") }
func BenchmarkF10GatewayDensity(b *testing.B)     { benchExperiment(b, "F10") }
func BenchmarkF11DesignAblation(b *testing.B)     { benchExperiment(b, "F11") }
func BenchmarkF12Multipath(b *testing.B)          { benchExperiment(b, "F12") }
func BenchmarkF13Fairness(b *testing.B)           { benchExperiment(b, "F13") }
func BenchmarkF14Resilience(b *testing.B)         { benchExperiment(b, "F14") }
func BenchmarkF15ReconfigFrequency(b *testing.B)  { benchExperiment(b, "F15") }
func BenchmarkF16CloudOffload(b *testing.B)       { benchExperiment(b, "F16") }

// --- Micro-benchmarks for the substrates the experiments lean on ---

func buildBench(b *testing.B, n, m int) *taccc.BuiltScenario {
	b.Helper()
	built, err := taccc.Scenario{NumIoT: n, NumEdge: m, Seed: 1}.Build()
	if err != nil {
		b.Fatal(err)
	}
	return built
}

func BenchmarkTopologyGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := taccc.GenerateTopology(taccc.FamilyHierarchical, taccc.TopologyConfig{
			NumIoT: 200, NumEdge: 20, NumGateways: 40, Seed: int64(i),
		}, taccc.PlaceUniform)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelayMatrix(b *testing.B) {
	g, err := taccc.GenerateTopology(taccc.FamilyHierarchical, taccc.TopologyConfig{
		NumIoT: 200, NumEdge: 20, NumGateways: 40, Seed: 1,
	}, taccc.PlaceUniform)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		taccc.NewDelayMatrix(g, taccc.LatencyCost)
	}
}

func benchAssigner(b *testing.B, name string, n, m int) {
	benchSolve(b, name, buildBench(b, n, m))
}

// benchSolve times one fresh solve of built's instance by the named
// algorithm per iteration, seeded with the iteration number.
func benchSolve(b *testing.B, name string, built *taccc.BuiltScenario) {
	reg := taccc.NewAlgorithmRegistry()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := reg.New(name, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Assign(built.Instance); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignGreedy100(b *testing.B)      { benchAssigner(b, "greedy", 100, 10) }
func BenchmarkAssignRegret100(b *testing.B)      { benchAssigner(b, "regret-greedy", 100, 10) }
func BenchmarkAssignRegret2000(b *testing.B)     { benchAssigner(b, "regret-greedy", 2000, 50) }
func BenchmarkAssignLocalSearch100(b *testing.B) { benchAssigner(b, "local-search", 100, 10) }
func BenchmarkAssignLagrangian100(b *testing.B)  { benchAssigner(b, "lagrangian", 100, 10) }
func BenchmarkAssignQLearning100(b *testing.B)   { benchAssigner(b, "qlearning", 100, 10) }
func BenchmarkAssignQLearning400(b *testing.B)   { benchAssigner(b, "qlearning", 400, 40) }

// rlSolveScenario is the shape of perfbench's rl-solve workload: the
// paper's Q-learning on 2000 devices and 50 edge servers at ρ=0.85, where
// the Q table grows to about 750k rows.
var rlSolveScenario = taccc.Scenario{NumIoT: 2000, NumEdge: 50, Rho: 0.85, Seed: 1}

func BenchmarkAssignQLearning2000(b *testing.B) {
	built, err := rlSolveScenario.Build()
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, "qlearning", built)
}

func BenchmarkBranchAndBound12(b *testing.B) {
	in, err := taccc.SyntheticInstance(taccc.SyntheticCorrelated, 12, 3, 0.8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taccc.BranchAndBound(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterSim(b *testing.B) {
	built := buildBench(b, 100, 10)
	a, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := taccc.NewSimulator(taccc.SimConfig{
			UplinkMs:    built.Delay.DelayMs,
			Devices:     built.Devices,
			ServiceRate: taccc.ServiceRates(built.Capacity, 0.7),
			Assignment:  a.Of,
			Seed:        int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSimSpans measures span emission against the nil-sink
// path: "off" must match BenchmarkClusterSim (tracing disabled is free),
// "on" prices full tracing through a JSONL encoder, and "sampled" the
// 10% operating point.
func BenchmarkClusterSimSpans(b *testing.B) {
	built := buildBench(b, 100, 10)
	a, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		spans  bool
		sample float64
	}{
		{"off", false, 0},
		{"on", true, 0},
		{"sampled-10pct", true, 0.1},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := taccc.SimConfig{
					UplinkMs:    built.Delay.DelayMs,
					Devices:     built.Devices,
					ServiceRate: taccc.ServiceRates(built.Capacity, 0.7),
					Assignment:  a.Of,
					Seed:        int64(i),
				}
				if mode.spans {
					cfg.Spans = taccc.NewJSONLSink(io.Discard)
					cfg.TraceSampleRate = mode.sample
				}
				sim, err := taccc.NewSimulator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(10_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterSimSLO pins the SLO plane's cost: "off" must match
// BenchmarkClusterSim (an unconfigured tracker is a nil pointer and
// every hook no-ops), "on" prices windowed aggregation plus objective
// evaluation with events discarded through a JSONL encoder.
func BenchmarkClusterSimSLO(b *testing.B) {
	built := buildBench(b, 100, 10)
	a, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		b.Fatal(err)
	}
	objectives, err := taccc.ParseSLOObjectives("p95<=20@99,miss<=0.01")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		slo  bool
	}{
		{"off", false},
		{"on", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := taccc.SimConfig{
					UplinkMs:    built.Delay.DelayMs,
					Devices:     built.Devices,
					ServiceRate: taccc.ServiceRates(built.Capacity, 0.7),
					Assignment:  a.Of,
					Seed:        int64(i),
				}
				if mode.slo {
					tr, err := taccc.NewSLOTracker(taccc.SLOConfig{
						WindowMs:   500,
						Objectives: objectives,
						Sink:       taccc.NewJSONLSink(io.Discard),
					})
					if err != nil {
						b.Fatal(err)
					}
					cfg.SLO = tr
				}
				sim, err := taccc.NewSimulator(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(10_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// simObservedScenario is the shape of perfbench's sim-observed workload:
// 300 devices on 20 edge servers at ρ=0.8, with tacsim's payload-aware
// 4 KB uplinks.
var simObservedScenario = taccc.Scenario{NumIoT: 300, NumEdge: 20, Rho: 0.8, PayloadKB: 4, Seed: 1}

// BenchmarkClusterSimObserved runs sim-observed's simulation of tabu's
// placement: 300 s after a 5 s warmup, with the metrics registry, the SLO
// tracker and 10% span sampling on, each plane writing to io.Discard. The
// scenario, the solve and the downlink matrix are built once, untimed.
func BenchmarkClusterSimObserved(b *testing.B) {
	built, err := simObservedScenario.Build()
	if err != nil {
		b.Fatal(err)
	}
	tabu, err := taccc.NewAlgorithmRegistry().New("tabu", simObservedScenario.Seed)
	if err != nil {
		b.Fatal(err)
	}
	a, err := tabu.Assign(built.Instance)
	if err != nil {
		b.Fatal(err)
	}
	down := taccc.NewDelayMatrix(built.Graph, taccc.LatencyCost)
	objectives, err := taccc.ParseSLOObjectives("p95<=20@99,miss<=0.01")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := taccc.NewSLOTracker(taccc.SLOConfig{
			WindowMs:   1000,
			Objectives: objectives,
			Sink:       taccc.NewJSONLSink(io.Discard),
			Metrics:    taccc.NewMetricsRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := taccc.NewSimulator(taccc.SimConfig{
			UplinkMs:        built.Delay.DelayMs,
			DownlinkMs:      down.DelayMs,
			Devices:         built.Devices,
			ServiceRate:     taccc.ServiceRates(built.Capacity, 0.7),
			Assignment:      a.Of,
			WarmupMs:        5000,
			Metrics:         taccc.NewMetricsRegistry(),
			Spans:           taccc.NewJSONLSink(io.Discard),
			SLO:             tr,
			TraceSampleRate: 0.1,
			Seed:            simObservedScenario.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(300_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (taccc.Scenario{NumIoT: 100, NumEdge: 10, Seed: int64(i)}).Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBound(b *testing.B) {
	built := buildBench(b, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = taccc.LowerBound(built.Instance)
	}
}

// wideScenario is the shape of perfbench's wide-greedy workload: 20,000
// devices on 200 edge servers, where topology generation, the delay matrix
// and LowerBound dominate the run.
var wideScenario = taccc.Scenario{NumIoT: 20000, NumEdge: 200, Rho: 0.7, Seed: 1}

func BenchmarkScenarioBuildWide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wideScenario.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBoundWide(b *testing.B) {
	built, err := wideScenario.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = taccc.LowerBound(built.Instance)
	}
}

// BenchmarkAssignGreedyWide is wide-greedy's solve: greedy on the
// 20,000 × 200 scenario, built outside the timer.
func BenchmarkAssignGreedyWide(b *testing.B) {
	built, err := wideScenario.Build()
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, "greedy", built)
}

// BenchmarkWideScaling is the solver scale curve at wide-greedy's shape,
// 200 edge servers at ρ=0.7: greedy at 10,000 and 100,000 devices and
// lagrangian at 10,000, one fresh solve per iteration. Each scenario is
// built outside the timer.
func BenchmarkWideScaling(b *testing.B) {
	for _, c := range []struct {
		algo string
		n    int
	}{{"greedy", 10_000}, {"greedy", 100_000}, {"lagrangian", 10_000}} {
		b.Run(fmt.Sprintf("%s-n%d", c.algo, c.n), func(b *testing.B) {
			built, err := taccc.Scenario{NumIoT: c.n, NumEdge: 200, Rho: 0.7, Seed: 1}.Build()
			if err != nil {
				b.Fatal(err)
			}
			benchSolve(b, c.algo, built)
		})
	}
}

// --- Parallel execution layer: workers=1 vs workers=GOMAXPROCS ---
//
// Compare sub-benchmarks to see the speedup, e.g.:
//
//	go test -bench 'Workers' -benchtime 2x .

func benchWorkerCounts(b *testing.B, run func(b *testing.B, workers int)) {
	b.Helper()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			run(b, workers)
		})
	}
}

func BenchmarkCompareAlgorithmsWorkers(b *testing.B) {
	sc := taccc.Scenario{NumIoT: 100, NumEdge: 10, Seed: 1}
	algos := []string{"greedy", "local-search", "tabu", "lagrangian", "qlearning"}
	benchWorkerCounts(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			if _, err := taccc.CompareAlgorithmsWorkers(sc, algos, 4, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDelayMatrixWorkers(b *testing.B) {
	g, err := taccc.GenerateTopology(taccc.FamilyHierarchical, taccc.TopologyConfig{
		NumIoT: 400, NumEdge: 40, NumGateways: 80, Seed: 1,
	}, taccc.PlaceUniform)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkerCounts(b, func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			taccc.NewDelayMatrixWorkers(g, taccc.LatencyCost, workers)
		}
	})
}

func BenchmarkAssignScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		n := n
		b.Run(fmt.Sprintf("greedy-n%d", n), func(b *testing.B) { benchAssigner(b, "greedy", n, n/10) })
		b.Run(fmt.Sprintf("qlearning-n%d", n), func(b *testing.B) { benchAssigner(b, "qlearning", n, n/10) })
	}
}
