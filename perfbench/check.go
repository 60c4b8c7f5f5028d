package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	taccc "taccc"
)

// checkRun is the per-pass correctness oracle. It recomputes what it can
// independently of the solver and of the facade's own reports.
func checkRun(w *workload, r *pipelineRun) []error {
	in := r.built.Instance
	var errs []error
	if !r.feasible {
		errs = append(errs, errors.New("assignment is not feasible"))
	}
	if len(r.got.Of) != in.N() {
		return append(errs, fmt.Errorf("assignment places %d of %d devices", len(r.got.Of), in.N()))
	}
	// Capacity (paper claim C2) and an independent re-cost in device
	// order, which must reproduce TotalCost bit for bit.
	load := make([]float64, in.M())
	cost := 0.0
	for i, j := range r.got.Of {
		if j < 0 || j >= in.M() {
			return append(errs, fmt.Errorf("device %d placed on edge %d of %d", i, j, in.M()))
		}
		load[j] += in.WeightAt(i, j)
		cost += in.CostAt(i, j)
	}
	for j, l := range load {
		if c := in.Capacity[j]; l > c*(1+1e-9)+1e-9 {
			errs = append(errs, fmt.Errorf("edge %d carries %g over capacity %g", j, l, c))
		}
	}
	if cost != r.total {
		errs = append(errs, fmt.Errorf("re-cost %v differs from TotalCost %v", cost, r.total))
	}
	if !(r.lowerBound <= r.total) {
		errs = append(errs, fmt.Errorf("lower bound %v exceeds total cost %v", r.lowerBound, r.total))
	}
	if w.algo == "qlearning" {
		// Q-learning seeds its incumbent with regret-greedy, so it can
		// never return a costlier placement.
		rg, err := taccc.NewAlgorithmRegistry().New("regret-greedy", r.seed)
		if err != nil {
			return append(errs, err)
		}
		if warm, err := rg.Assign(in); err == nil && in.Feasible(warm) && r.total > in.TotalCost(warm) {
			errs = append(errs, fmt.Errorf("qlearning cost %v exceeds its regret-greedy warm start %v", r.total, in.TotalCost(warm)))
		}
	}
	if r.sim != nil {
		errs = append(errs, checkSim(r)...)
	}
	return errs
}

// checkSim checks request conservation and latency attribution in the
// simulator's metrics registry.
func checkSim(r *pipelineRun) []error {
	snap := r.obs.metrics.Snapshot()
	sent := snap.Counters["cluster.requests_sent"]
	done := snap.Counters["cluster.requests_ok"] + snap.Counters["cluster.requests_missed"] + snap.Counters["cluster.requests_dropped"]
	var errs []error
	if sent == 0 {
		errs = append(errs, errors.New("simulator sent no requests"))
	}
	if inFlight := sent - done; inFlight < 0 {
		errs = append(errs, fmt.Errorf("requests_sent %d is below ok+missed+dropped %d", sent, done))
	}
	latency := snap.Histograms["cluster.latency_ms"].Sum
	phases := snap.Histograms["cluster.delay.uplink_ms"].Sum +
		snap.Histograms["cluster.delay.queue_ms"].Sum +
		snap.Histograms["cluster.delay.service_ms"].Sum +
		snap.Histograms["cluster.delay.downlink_ms"].Sum
	if math.Abs(phases-latency) > 1e-9*math.Abs(latency) {
		errs = append(errs, fmt.Errorf("phase delays sum to %v, latencies to %v", phases, latency))
	}
	return errs
}

// cliLines renders, with the shipped binary's own format strings, the
// lines its output must contain for the same instance.
func cliLines(w *workload, r *pipelineRun) []string {
	if r.sim == nil {
		return []string{
			fmt.Sprintf("total delay:  %.3f ms", r.total),
			fmt.Sprintf("mean delay:   %.3f ms", r.mean),
			fmt.Sprintf("max delay:    %.3f ms", r.max),
			fmt.Sprintf("lower bound:  %.3f ms (total)", r.lowerBound),
			fmt.Sprintf("feasible:     %v", r.feasible),
		}
	}
	res := r.sim
	return []string{
		fmt.Sprintf("assignment: algo=%s mean-delay=%.3fms max-delay=%.3fms imbalance=%.2f", w.algo, r.mean, r.max, r.imbalance),
		fmt.Sprintf("completed:  %d requests (%d dropped)", res.Completed, res.Dropped),
		fmt.Sprintf("latency:    p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
			res.Latency.Median(), res.Latency.P95(), res.Latency.P99(), res.Latency.Quantile(1)),
		fmt.Sprintf("deadlines:  %d missed (%.2f%%)", res.DeadlineMisses, 100*res.MissRate()),
	}
}

// crossCheck reports every expected line missing from the CLI's output.
func crossCheck(want []string, out string) error {
	have := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		have[strings.TrimRight(line, "\r")] = true
	}
	var missing []string
	for _, line := range want {
		if !have[line] {
			missing = append(missing, strconv.Quote(line))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("CLI output lacks %s", strings.Join(missing, ", "))
	}
	return nil
}

// assignmentHash is FNV-64a over the placement vector.
func assignmentHash(of []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, j := range of {
		for k := range b {
			b[k] = byte(uint64(j) >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// sameSimResult reports whether two runs produced the same simulation
// outcome, latency sample included.
func sameSimResult(a, b *taccc.SimResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Completed != b.Completed || a.Dropped != b.Dropped || a.DeadlineMisses != b.DeadlineMisses ||
		a.DurationMs != b.DurationMs || !equalFloats(a.EdgeBusyMs, b.EdgeBusyMs) {
		return false
	}
	if len(a.PeakQueue) != len(b.PeakQueue) {
		return false
	}
	for j := range a.PeakQueue {
		if a.PeakQueue[j] != b.PeakQueue[j] {
			return false
		}
	}
	return equalFloats(a.Latency.Values(), b.Latency.Values())
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
