package taccc_test

import (
	"bytes"
	"math"
	"testing"

	taccc "taccc"
	"taccc/internal/obs"
)

// TestSoakDynamicPipeline drives the whole stack through one long dynamic
// run — solve, simulate with drift, mid-run reconfiguration with migration
// pauses, an edge failure and recovery, PS discipline and every request
// traced into a JSONL stream — and asserts global consistency
// invariants between the simulator's result and the request records
// decoded back from that stream.
func TestSoakDynamicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	built, err := taccc.Scenario{NumIoT: 40, NumEdge: 5, Rho: 0.6, Seed: 11}.Build()
	if err != nil {
		t.Fatal(err)
	}
	initial, err := taccc.NewQLearning(11).Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := taccc.NewJSONLSink(&buf)
	sim, err := taccc.NewSimulator(taccc.SimConfig{
		UplinkMs:    built.Delay.DelayMs,
		Devices:     built.Devices,
		ServiceRate: taccc.ServiceRates(built.Capacity, 0.6),
		Assignment:  initial.Of,
		WarmupMs:    5_000,
		Discipline:  taccc.DisciplinePS,
		JitterSigma: 0.3,
		MaxQueue:    2_000,
		Spans:       sink,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drift: delays double at t=60 s (device movement), revert at 120 s.
	doubled := make([][]float64, len(built.Delay.DelayMs))
	for i, row := range built.Delay.DelayMs {
		doubled[i] = make([]float64, len(row))
		for j, d := range row {
			doubled[i][j] = 2 * d
		}
	}
	if err := sim.ScheduleUplinkUpdate(60_000, doubled, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleUplinkUpdate(120_000, built.Delay.DelayMs, nil); err != nil {
		t.Fatal(err)
	}
	// Reconfigure with migration pause at t=90 s.
	if err := sim.ScheduleReconfigureWithPause(90_000, alt.Of, 1_000); err != nil {
		t.Fatal(err)
	}
	// Edge failure and recovery.
	if err := sim.ScheduleEdgeFailure(30_000, 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleEdgeRecovery(45_000, 0); err != nil {
		t.Fatal(err)
	}

	res, err := sim.Run(180_000) // 3 simulated minutes
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Global sanity.
	if res.Completed < 1_000 {
		t.Fatalf("only %d completions in 3 minutes", res.Completed)
	}
	if res.Dropped == 0 {
		t.Fatal("edge failure produced no drops")
	}
	for j, u := range res.Utilization() {
		if u < 0 || u > 1.2 {
			t.Fatalf("edge %d utilization %v out of range", j, u)
		}
	}
	// Trace agrees with result on the measured window.
	events, err := obs.ReadEventStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := taccc.TraceFromSpanEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	misses := 0
	var latSum float64
	for _, r := range recs {
		if r.SentAtMs < 5_000 || r.Outcome == taccc.OutcomeDropped {
			continue
		}
		measured++
		latSum += r.LatencyMs
		if r.Outcome == taccc.OutcomeMissed {
			misses++
		}
	}
	if measured != res.Completed {
		t.Fatalf("trace measured %d completions, result %d", measured, res.Completed)
	}
	if misses != res.DeadlineMisses {
		t.Fatalf("trace misses %d, result %d", misses, res.DeadlineMisses)
	}
	if math.Abs(latSum/float64(measured)-res.Latency.Mean()) > 1e-3 {
		t.Fatalf("trace mean %v, result mean %v", latSum/float64(measured), res.Latency.Mean())
	}
	// Time series covers the full horizon.
	ts, err := taccc.TraceTimeSeries(recs, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) < 5 {
		t.Fatalf("time series has %d windows, want ~6", len(ts))
	}
}
