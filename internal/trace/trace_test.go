package trace

import (
	"math"
	"testing"

	"taccc/internal/cluster"
	"taccc/internal/obs"
	"taccc/internal/workload"
)

func sampleRecords() []RequestRecord {
	return []RequestRecord{
		{Device: 0, Edge: 1, SentAtMs: 10, DoneAtMs: 25, LatencyMs: 15, Outcome: cluster.OutcomeOK},
		{Device: 1, Edge: 0, SentAtMs: 12, DoneAtMs: 300, LatencyMs: 288, Outcome: cluster.OutcomeMissed},
		{Device: 2, Edge: 1, SentAtMs: 14, DoneAtMs: 14, Outcome: cluster.OutcomeDropped},
		{Device: 0, Edge: 1, SentAtMs: 1200, DoneAtMs: 1215, LatencyMs: 15, Outcome: cluster.OutcomeOK},
	}
}

// TestFromSpanEventsErrors: a request span whose payload lacks the
// device, edge or outcome attribute, or carries an unknown outcome, is an
// error, not a silent skip.
func TestFromSpanEventsErrors(t *testing.T) {
	request := func(attrs map[string]interface{}) []obs.Event {
		var events []obs.Event
		obs.EmitSpan(obs.SinkFunc(func(e obs.Event) { events = append(events, e) }),
			obs.Span{Trace: 1, ID: 1, Name: "request", StartMs: 1, EndMs: 3, Attrs: attrs})
		return events
	}
	recs, err := FromSpanEvents(request(map[string]interface{}{"device": 1, "edge": 0, "outcome": "ok"}))
	if err != nil || len(recs) != 1 || recs[0].LatencyMs != 2 {
		t.Fatalf("well-formed request span: %+v, %v", recs, err)
	}
	for name, attrs := range map[string]map[string]interface{}{
		"no device":   {"edge": 0, "outcome": "ok"},
		"no edge":     {"device": 1, "outcome": "ok"},
		"no outcome":  {"device": 1, "edge": 0},
		"bad outcome": {"device": 1, "edge": 0, "outcome": "wat"},
	} {
		if _, err := FromSpanEvents(request(attrs)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleRecords())
	if s.Completed != 3 || s.Missed != 1 || s.Dropped != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.MissRate()-1.0/3) > 1e-9 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
	if s.PerEdge[1] != 2 || s.PerEdge[0] != 1 {
		t.Fatalf("PerEdge = %v", s.PerEdge)
	}
	if n := len(s.Latency.Values()); n != 3 {
		t.Fatalf("latency sample holds %d values", n)
	}
	empty := Summarize(nil)
	if empty.MissRate() != 0 {
		t.Fatal("empty MissRate != 0")
	}
}

func TestTimeSeries(t *testing.T) {
	ts, err := TimeSeries(sampleRecords(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets: [0,1000) has 2 completed + 1 dropped; [1000,2000) has 1.
	if len(ts) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(ts), ts)
	}
	if ts[0].StartMs != 0 || ts[0].Completed != 2 || ts[0].Dropped != 1 {
		t.Fatalf("window 0 = %+v", ts[0])
	}
	if ts[1].StartMs != 1000 || ts[1].Completed != 1 {
		t.Fatalf("window 1 = %+v", ts[1])
	}
	if ts[0].MeanLatencyMs <= 0 || ts[0].P95Ms <= 0 {
		t.Fatalf("window 0 latency stats = %+v", ts[0])
	}
	if _, err := TimeSeries(nil, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestEndToEndWithSimulator runs a real simulation with every request
// traced and checks the records rebuilt from its spans agree with the
// simulator's own Result.
func TestEndToEndWithSimulator(t *testing.T) {
	var events []obs.Event
	cfg := cluster.Config{
		UplinkMs: [][]float64{{5, 50}, {50, 5}},
		Devices: []workload.Device{
			{ID: 0, RateHz: 10, ComputeUnits: 1, DeadlineMs: 100},
			{ID: 1, RateHz: 10, ComputeUnits: 1, DeadlineMs: 100},
		},
		ServiceRate: []float64{1000, 1000},
		Assignment:  []int{0, 1},
		Spans:       obs.SinkFunc(func(e obs.Event) { events = append(events, e) }),
		Seed:        3,
	}
	s, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := FromSpanEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(recs)
	// No warmup configured and no drops at the device, so the trace's
	// counts must equal the result's.
	if sum.Completed != res.Completed {
		t.Fatalf("trace completed %d, result %d", sum.Completed, res.Completed)
	}
	if sum.Missed != res.DeadlineMisses {
		t.Fatalf("trace missed %d, result %d", sum.Missed, res.DeadlineMisses)
	}
	if sum.Dropped != res.Dropped {
		t.Fatalf("trace dropped %d, result %d", sum.Dropped, res.Dropped)
	}
	if math.Abs(sum.Latency.Mean()-res.Latency.Mean()) > 1e-6 {
		t.Fatalf("trace mean %v, result mean %v", sum.Latency.Mean(), res.Latency.Mean())
	}
	ts, err := TimeSeries(recs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) < 5 {
		t.Fatalf("expected ~10 windows, got %d", len(ts))
	}
}
