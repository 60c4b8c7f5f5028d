package main

import (
	"fmt"
	"strconv"

	taccc "taccc"
)

// workload is one benchmark input: a scenario size, a solver and, for the
// simulation workload, the tacsim run parameters. Each workload is a closed
// loop — one pipeline at a time, from one process — and the CLI run it is
// cross-checked against never overlaps the in-process pass.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also records
	// its command line and why it was chosen.
	name string
	// tool is the shipped binary whose output the in-process pass mirrors.
	tool string
	iot  int
	edge int
	rho  float64
	algo string
	// instances is how many distinct scenarios one run cycles through
	// (instance k is built from instanceSeed(seed, k)). Pooling the
	// deterministic quality figures over several instances keeps their
	// run-to-run spread small; every run completes at least one pass.
	instances int
	sim       *simSpec
}

// simSpec holds the tacsim flags of a simulation workload.
type simSpec struct {
	durationS   float64
	warmupS     float64
	slo         string
	sloWindowS  float64
	traceSample float64
	// payloadKB mirrors tacsim's -payload default: uplink delays are
	// payload-aware in tacsim, unlike tacsolve's scenario mode.
	payloadKB float64
}

var workloads = []*workload{
	{
		name:      "rl-solve",
		tool:      "tacsolve",
		iot:       2000,
		edge:      50,
		rho:       0.85,
		algo:      "qlearning",
		instances: 3,
	},
	{
		name:      "wide-greedy",
		tool:      "tacsolve",
		iot:       20000,
		edge:      200,
		rho:       0.7,
		algo:      "greedy",
		instances: 3,
	},
	{
		name:      "sim-observed",
		tool:      "tacsim",
		iot:       300,
		edge:      20,
		rho:       0.8,
		algo:      "tabu",
		instances: 8,
		sim: &simSpec{
			durationS:   300,
			warmupS:     5,
			slo:         "p95<=20@99,miss<=0.01",
			sloWindowS:  1,
			traceSample: 0.1,
			payloadKB:   4,
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// instanceSeed derives the seed of instance k of a run. Instance 0 uses
// the run seed itself, so `--seed s` reproduces `tacsolve ... -seed s`.
func instanceSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return taccc.SplitSeed(seed, "perfbench-instance-"+strconv.Itoa(k))
}

// scenario is the in-process equivalent of the CLI's scenario flags.
func (w *workload) scenario(seed int64, workers int, trace *taccc.Phase) taccc.Scenario {
	sc := taccc.Scenario{
		Family:  taccc.FamilyHierarchical,
		NumIoT:  w.iot,
		NumEdge: w.edge,
		Rho:     w.rho,
		Seed:    seed,
		Workers: workers,
		Trace:   trace,
	}
	if w.sim != nil {
		sc.PayloadKB = w.sim.payloadKB
	}
	return sc
}

// cliArgs is the command line of the shipped binary for one instance;
// archiveDir is used by the simulation workload only.
func (w *workload) cliArgs(seed int64, workers int, archiveDir string) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	args := []string{
		"-iot", strconv.Itoa(w.iot),
		"-edge", strconv.Itoa(w.edge),
		"-rho", f(w.rho),
		"-algo", w.algo,
		"-seed", strconv.FormatInt(seed, 10),
		"-workers", strconv.Itoa(workers),
	}
	if s := w.sim; s != nil {
		args = append(args,
			"-duration", f(s.durationS),
			"-warmup", f(s.warmupS),
			"-slo", s.slo,
			"-slo-window", f(s.sloWindowS),
			"-trace-sample", f(s.traceSample),
			"-archive", archiveDir,
		)
	}
	return args
}
