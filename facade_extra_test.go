package taccc_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	taccc "taccc"
	"taccc/internal/obs"
)

func TestPublicOnlineController(t *testing.T) {
	ctrl, err := taccc.NewOnlineController([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Join(0, []float64{3, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Join(1, []float64{1, 3}, 2); err != nil {
		t.Fatal(err)
	}
	if ctrl.NumDevices() != 2 || ctrl.MeanDelay() != 1 {
		t.Fatalf("controller state: n=%d mean=%v", ctrl.NumDevices(), ctrl.MeanDelay())
	}
	if _, err := ctrl.Rebalance(taccc.NewGreedy(), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Join(0, []float64{1, 1}, 1); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if _, err := ctrl.Join(9, []float64{1, 1}, 1e9); !errors.Is(err, taccc.ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if err := ctrl.Leave(42); !errors.Is(err, taccc.ErrUnknownDevice) {
		t.Fatalf("want ErrUnknownDevice, got %v", err)
	}
}

func TestPublicCongestionFlow(t *testing.T) {
	built, err := taccc.Scenario{
		Family: taccc.FamilyGrid, NumIoT: 20, NumEdge: 3,
		Place: taccc.PlaceHotspot, Seed: 6,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]taccc.Flow, 20)
	for i, d := range built.Devices {
		flows[i] = taccc.Flow{IoT: built.Delay.IoT[i], RateHz: d.RateHz, PayloadKB: d.PayloadKB}
	}
	multi, err := built.Graph.EvaluateCongestionMultipath(built.Delay, flows, a.Of, 2)
	if err != nil {
		t.Fatal(err)
	}
	if multi.MeanDelayMs() <= 0 {
		t.Fatal("non-positive multipath delay")
	}
}

func TestPublicKShortestPaths(t *testing.T) {
	built, err := taccc.Scenario{Family: taccc.FamilyGrid, NumIoT: 10, NumEdge: 2, Seed: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	iot := built.Delay.IoT[0]
	edge := built.Delay.Edge[0]
	paths, err := built.Graph.KShortestPaths(iot, edge, 3, taccc.LatencyCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths on connected graph")
	}
	if math.Abs(paths[0].Cost-built.Delay.DelayMs[0][0]) > 1e-9 {
		t.Fatalf("first path cost %v != delay matrix %v", paths[0].Cost, built.Delay.DelayMs[0][0])
	}
}

// TestPublicTraceRoundTrip: a simulation's request spans, written as
// JSONL, decode back into request records that summarize and bucket.
func TestPublicTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := taccc.NewJSONLSink(&buf)
	sim, err := taccc.NewSimulator(taccc.SimConfig{
		UplinkMs:    [][]float64{{2, 3}, {4, 1}},
		Devices:     []taccc.Device{{ID: 0, RateHz: 5, ComputeUnits: 1}, {ID: 1, RateHz: 5, ComputeUnits: 1}},
		ServiceRate: []float64{100, 100},
		Assignment:  []int{0, 1},
		Spans:       sink,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ScheduleEdgeFailure(1_000, 1); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(2_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEventStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := taccc.TraceFromSpanEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	// Requests dropped at the device by the failed edge count in the
	// result but are never traced.
	sum := taccc.SummarizeTrace(recs)
	if sum.Completed != res.Completed || sum.Completed == 0 || sum.Dropped != 0 || res.Dropped == 0 {
		t.Fatalf("summary = %+v, result completed %d, dropped %d", sum, res.Completed, res.Dropped)
	}
	ts, err := taccc.TraceTimeSeries(recs, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Completed+ts[1].Completed != sum.Completed {
		t.Fatalf("windows = %+v, want two holding %d completions", ts, sum.Completed)
	}
}

func TestPublicTopologyMetrics(t *testing.T) {
	g, err := taccc.GenerateTopology(taccc.FamilyRing, taccc.TopologyConfig{
		NumIoT: 12, NumEdge: 3, NumGateways: 6, Seed: 3,
	}, taccc.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	m := taccc.ComputeTopologyMetrics(g)
	if m.Nodes == 0 || m.DiameterHops <= 0 || m.AvgIoTMinDelayMs <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestPublicPSDisciplineAndQueueCap(t *testing.T) {
	built, err := taccc.Scenario{NumIoT: 15, NumEdge: 3, Seed: 9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := taccc.NewGreedy().Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := taccc.NewSimulator(taccc.SimConfig{
		UplinkMs:    built.Delay.DelayMs,
		Devices:     built.Devices,
		ServiceRate: taccc.ServiceRates(built.Capacity, 0.7),
		Assignment:  a.Of,
		Discipline:  taccc.DisciplinePS,
		MaxQueue:    100,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(4_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("PS simulation completed nothing")
	}
}

func TestPublicOnlinePolicies(t *testing.T) {
	ctrl, err := taccc.NewOnlineController([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Join(0, []float64{4, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.UpdateCosts(0, []float64{1, 4}); err != nil {
		t.Fatal(err)
	}
	policies := []taccc.OnlinePolicy{
		taccc.PolicyJoinOnly{},
		taccc.PolicyThreshold{},
		taccc.PolicyRebalance{Seed: 2},
	}
	for _, p := range policies {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
	}
	// The threshold policy should move the device to the now-closer edge.
	if err := policies[1].Tick(0, ctrl); err != nil {
		t.Fatal(err)
	}
	ids, _, cur, err := ctrl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || cur.Of[0] != 0 {
		t.Fatalf("placement %v of devices %v, want edge 0 after threshold tick", cur.Of, ids)
	}
}
