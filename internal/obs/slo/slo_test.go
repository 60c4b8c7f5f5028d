package slo

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"taccc/internal/obs"
)

// collect is an obs.Sink that retains every event.
type collect struct{ events []obs.Event }

func (c *collect) Emit(e obs.Event) { c.events = append(c.events, e) }

func (c *collect) kind(k string) []obs.Event {
	var out []obs.Event
	for _, e := range c.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func mustNew(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestWindowRotation(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs:   100,
		Objectives: []Objective{{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 1e9, Target: 0.99}},
		Sink:       sink,
	})
	// Window 0: two observations. Window 1 empty. Window 3: one
	// observation; windows close lazily as time advances.
	tr.Observe(10, 5, false)
	tr.Observe(90, 7, false)
	if got := len(sink.kind("slo-window")); got != 0 {
		t.Fatalf("window closed early: %d events", got)
	}
	tr.Observe(310, 9, false) // advances past windows 0,1,2
	wins := sink.kind("slo-window")
	if len(wins) != 1 {
		t.Fatalf("want 1 closed window (empty windows skipped), got %d", len(wins))
	}
	if idx, _ := wins[0].Int("window"); idx != 0 {
		t.Fatalf("window index = %d, want 0", idx)
	}
	if n, _ := wins[0].Int("count"); n != 2 {
		t.Fatalf("window count = %d, want 2", n)
	}
	if start, _ := wins[0].Num("start_ms"); start != 0 {
		t.Fatalf("start_ms = %v, want 0", start)
	}
	if end, _ := wins[0].Num("end_ms"); end != 100 {
		t.Fatalf("end_ms = %v, want 100", end)
	}
	tr.Finish(400)
	wins = sink.kind("slo-window")
	if len(wins) != 2 {
		t.Fatalf("after Finish want 2 closed windows, got %d", len(wins))
	}
	if idx, _ := wins[1].Int("window"); idx != 3 {
		t.Fatalf("second window index = %d, want 3", idx)
	}
	if end, _ := wins[1].Num("end_ms"); end != 400 {
		t.Fatalf("final partial window end_ms = %v, want 400 (Finish time)", end)
	}
}

// TestWindowBucketEdges is obs's TestHistogramBucketEdges for an SLO
// window: -Inf, NaN, +Inf, each bound and the next float above it land
// in the bucket a registry histogram files them in. So a window whose
// sample is NaN reports its quantiles from the overflow bucket and
// violates a latency objective, rather than reading as fast.
func TestWindowBucketEdges(t *testing.T) {
	type edge struct {
		v    float64
		want int
	}
	bounds := obs.DefaultLatencyBucketsMs()
	overflow := len(bounds)
	cases := []edge{
		{math.Inf(-1), 0},
		{-1, 0},
		{0, 0},
		{math.NaN(), overflow},
		{math.Inf(1), overflow},
		{math.MaxFloat64, overflow},
	}
	for i, b := range bounds {
		cases = append(cases, edge{b, i}, edge{math.Nextafter(b, math.Inf(1)), i + 1})
	}
	for _, c := range cases {
		w := windowHist{counts: make([]int64, len(bounds)+1)}
		w.observe(bounds, c.v)
		got := -1
		for i, n := range w.counts {
			if n == 1 {
				got = i
			}
		}
		if got != c.want {
			t.Errorf("observe(%v) filed in bucket %d, want %d", c.v, got, c.want)
		}
	}

	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs:   100,
		Objectives: []Objective{{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 20, Target: 0.99}},
		Sink:       sink,
	})
	tr.Observe(10, math.NaN(), false)
	tr.Finish(100)
	wins := sink.kind("slo-window")
	if len(wins) != 1 {
		t.Fatalf("want 1 window, got %d", len(wins))
	}
	overflowQ := 2 * bounds[len(bounds)-1]
	for _, field := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		if got, _ := wins[0].Num(field); got != overflowQ {
			t.Errorf("NaN window %s = %v, want the overflow answer %v", field, got, overflowQ)
		}
	}
	if r := tr.Results()[0]; r.Violations != 1 {
		t.Errorf("a NaN latency window violated p95<=20 %d times, want 1", r.Violations)
	}
}

// TestWindowNonFiniteMean observes 5 ms and a NaN or +Inf latency in one
// window, then a clean window, through a JSONL sink and a registry. The
// stream must stay encodable, the first window's mean must read as the
// overflow answer in its event, its gauge and its slo-eval, and a
// mean<=20 objective must count that window as violated.
func TestWindowNonFiniteMean(t *testing.T) {
	bounds := obs.DefaultLatencyBucketsMs()
	overflow := 2 * bounds[len(bounds)-1]
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		reg := obs.NewRegistry()
		tr := mustNew(t, Config{
			WindowMs:   100,
			Objectives: []Objective{{Name: "lat", Series: SeriesE2E, Stat: StatMean, Threshold: 20, Target: 0.99}},
			Sink:       sink,
			Metrics:    reg,
		})
		tr.Observe(10, 5, false)
		tr.Observe(20, v, false)
		tr.Observe(110, 5, false) // closes window 0
		if got := reg.Snapshot().Gauges["slo.window.e2e.mean_ms"]; got != overflow {
			t.Errorf("%v: mean gauge = %v, want %v", v, got, overflow)
		}
		tr.Finish(200)
		if err := sink.Close(); err != nil {
			t.Fatalf("%v: stream not encodable: %v", v, err)
		}
		events, err := obs.ReadEventStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var windows, evals []obs.Event
		for _, e := range events {
			switch e.Kind {
			case "slo-window":
				windows = append(windows, e)
			case "slo-eval":
				evals = append(evals, e)
			}
		}
		if len(windows) != 2 || len(evals) != 2 {
			t.Fatalf("%v: %d windows and %d evals written, want 2 and 2", v, len(windows), len(evals))
		}
		if got, _ := windows[0].Num("mean_ms"); got != overflow {
			t.Errorf("%v: window mean_ms = %v, want %v", v, got, overflow)
		}
		if got, _ := evals[0].Num("observed"); got != overflow {
			t.Errorf("%v: slo-eval observed = %v, want %v", v, got, overflow)
		}
		if r := tr.Results()[0]; r.Violations != 1 || r.Met {
			t.Errorf("%v: mean<=20 has %d violations, met %v; want 1 and false", v, r.Violations, r.Met)
		}
	}
}

// TestWindowQuantilesVsBruteForce checks the windowed quantile against a
// brute-force sort of the same samples, allowing the histogram's
// bucket-upper-bound semantics: the estimate must be the smallest bucket
// bound at or above the exact order statistic.
func TestWindowQuantilesVsBruteForce(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs:   1000,
		Objectives: []Objective{{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 1e9, Target: 0.99}},
		Sink:       sink,
	})
	// Deterministic LCG so the test needs no rand import.
	state := uint64(42)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24) // [0,1)
	}
	var samples []float64
	for i := 0; i < 500; i++ {
		v := math.Pow(2000, next()) // log-uniform over [1, 2000) ms
		samples = append(samples, v)
		tr.Observe(float64(i), v, false)
	}
	tr.Finish(1000)
	wins := sink.kind("slo-window")
	if len(wins) != 1 {
		t.Fatalf("want 1 window, got %d", len(wins))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	bounds := obs.DefaultLatencyBucketsMs()
	for _, q := range []struct {
		field string
		q     float64
	}{{"p50_ms", 0.50}, {"p95_ms", 0.95}, {"p99_ms", 0.99}} {
		got, ok := wins[0].Num(q.field)
		if !ok {
			t.Fatalf("window event missing %s", q.field)
		}
		exact := sorted[int(math.Ceil(q.q*float64(len(sorted))))-1]
		// Smallest bound >= exact is the histogram's answer.
		want := math.Inf(1)
		for _, b := range bounds {
			if b >= exact {
				want = b
				break
			}
		}
		if math.IsInf(want, 1) {
			want = 2 * bounds[len(bounds)-1]
		}
		if got != want {
			t.Errorf("%s = %v, want bucket bound %v (exact %v)", q.field, got, want, exact)
		}
		if got < exact && got != want {
			t.Errorf("%s = %v underestimates exact order statistic %v", q.field, got, exact)
		}
	}
	mean, _ := wins[0].Num("mean_ms")
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	if math.Abs(mean-sum/float64(len(samples))) > 1e-9 {
		t.Errorf("mean_ms = %v, want exact %v", mean, sum/float64(len(samples)))
	}
}

// TestBudgetBurnMath runs 14 windows, enough to wrap the 10-window burn
// lookback, with windows 2 and 7 violating: the burn rate counts window 2
// until the ring wraps past it at window 12.
func TestBudgetBurnMath(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs: 10,
		Objectives: []Objective{{
			Name: "lat", Series: SeriesE2E, Stat: StatQuantile(0.95),
			Threshold: 50, Target: 0.90,
		}},
		Sink: sink,
	})
	const windows = 14
	for w := 0; w < windows; w++ {
		v := 1.0
		if w == 2 || w == 7 {
			v = 500
		}
		tr.Observe(float64(w*10)+5, v, false)
	}
	tr.Finish(windows * 10)
	res := tr.Results()
	if len(res) != 1 {
		t.Fatalf("want 1 result, got %d", len(res))
	}
	r := res[0]
	if r.Windows != windows || r.Violations != 2 {
		t.Fatalf("windows/violations = %d/%d, want %d/2", r.Windows, r.Violations, windows)
	}
	if want := 100 * (1 - 2.0/windows); math.Abs(r.CompliancePct-want) > 1e-9 {
		t.Fatalf("compliance = %v, want %v", r.CompliancePct, want)
	}
	// Budget: (1-0.90)*14 = 1.4 windows allowed, 2 spent → remaining -0.6.
	if math.Abs(r.BudgetTotal-1.4) > 1e-9 || math.Abs(r.BudgetRemaining-(-0.6)) > 1e-9 {
		t.Fatalf("budget total/remaining = %v/%v, want 1.4/-0.6", r.BudgetTotal, r.BudgetRemaining)
	}
	if r.Met {
		t.Fatalf("objective reported met at %v%% compliance vs 90%% target", r.CompliancePct)
	}
	// Burn at the last window: the lookback covers windows 4..13, one bad
	// (window 7) → rate 0.1 / allowed 0.1 = 1.
	if math.Abs(r.BurnRate-1) > 1e-9 {
		t.Fatalf("burn rate = %v, want 1", r.BurnRate)
	}
	evals := sink.kind("slo-eval")
	if len(evals) != windows {
		t.Fatalf("want %d eval events, got %d", windows, len(evals))
	}
	for _, c := range []struct {
		window int
		burn   float64
	}{
		{2, (1.0 / 3.0) / 0.10},   // the ring holds 3 windows, one bad
		{9, (2.0 / 10.0) / 0.10},  // the ring is full: windows 0..9
		{11, (2.0 / 10.0) / 0.10}, // windows 2..11, both bad ones still in
		{12, (1.0 / 10.0) / 0.10}, // windows 3..12: window 2 has wrapped out
	} {
		if burn, _ := evals[c.window].Num("burn_rate"); math.Abs(burn-c.burn) > 1e-9 {
			t.Errorf("window %d burn = %v, want %v", c.window, burn, c.burn)
		}
	}
	if v, _ := evals[2].Bool("violated"); !v {
		t.Fatalf("window 2 eval not marked violated")
	}
	if rem, _ := evals[windows-1].Num("budget_remaining"); math.Abs(rem-(-0.6)) > 1e-9 {
		t.Fatalf("final eval budget_remaining = %v, want -0.6", rem)
	}
}

// TestAlertHysteresis: an alert fires on the first violating window and
// resolves on the first compliant one.
func TestAlertHysteresis(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs: 10,
		Objectives: []Objective{{
			Name: "lat", Series: SeriesE2E, Stat: StatMean,
			Threshold: 50, Target: 0.5,
		}},
		Sink: sink,
	})
	// Pattern: good, bad (fire), bad, good (resolve), good, bad (fire),
	// good (resolve).
	vals := []float64{1, 500, 500, 1, 1, 500, 1}
	for w, v := range vals {
		tr.Observe(float64(w*10)+5, v, false)
	}
	tr.Finish(float64(len(vals) * 10))
	want := []struct {
		state  string
		window int64
	}{{"firing", 1}, {"resolved", 3}, {"firing", 5}, {"resolved", 6}}
	alerts := sink.kind("slo-alert")
	if len(alerts) != len(want) {
		t.Fatalf("want %d alert transitions, got %d: %v", len(want), len(alerts), alerts)
	}
	for k, w := range want {
		state, _ := alerts[k].Str("state")
		window, _ := alerts[k].Int("window")
		if state != w.state || window != w.window {
			t.Errorf("transition %d = %s at window %d, want %s at window %d", k, state, window, w.state, w.window)
		}
		if reason, _ := alerts[k].Str("reason"); w.state == "resolved" && reason != "recovered" {
			t.Errorf("transition %d resolve reason = %q, want recovered", k, reason)
		}
	}
	res := tr.Results()[0]
	if res.Alerts != 2 || res.Firing {
		t.Fatalf("alerts/firing = %d/%v, want 2/false", res.Alerts, res.Firing)
	}
}

func TestFinishForceResolves(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs: 10,
		Objectives: []Objective{{
			Name: "lat", Series: SeriesE2E, Stat: StatMean, Threshold: 50, Target: 0.99,
		}},
		Sink: sink,
	})
	tr.Observe(5, 500, false)
	tr.Observe(15, 500, false)
	tr.Finish(20)
	alerts := sink.kind("slo-alert")
	if len(alerts) != 2 {
		t.Fatalf("want fire + end-of-run resolve, got %d transitions", len(alerts))
	}
	if reason, _ := alerts[1].Str("reason"); reason != "end-of-run" {
		t.Fatalf("resolve reason = %q, want end-of-run", reason)
	}
	if tr.Results()[0].Firing {
		t.Fatalf("still firing after Finish")
	}
	objs := sink.kind("slo-objective")
	if len(objs) != 1 {
		t.Fatalf("want 1 slo-objective summary, got %d", len(objs))
	}
	if met, _ := objs[0].Bool("met"); met {
		t.Fatalf("objective reported met with 100%% violations")
	}
	if a, _ := objs[0].Int("alerts"); a != 1 {
		t.Fatalf("summary alerts = %d, want 1", a)
	}
}

func TestMissRateCountsDrops(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs: 100,
		Objectives: []Objective{{
			Name: "miss", Series: SeriesE2E, Stat: StatMiss, Threshold: 0.10, Target: 0.99,
		}},
		Sink: sink,
	})
	// 3 completions (1 missed deadline) + 1 drop → miss rate (1+1)/4.
	tr.Observe(10, 5, false)
	tr.Observe(20, 5, true)
	tr.Observe(30, 5, false)
	tr.ObserveDrop(40)
	tr.Finish(100)
	wins := sink.kind("slo-window")
	if len(wins) != 1 {
		t.Fatalf("want 1 window event, got %d", len(wins))
	}
	mr, ok := wins[0].Num("miss_rate")
	if !ok || math.Abs(mr-0.5) > 1e-9 {
		t.Fatalf("miss_rate = %v (ok=%v), want 0.5", mr, ok)
	}
	evals := sink.kind("slo-eval")
	if len(evals) != 1 {
		t.Fatalf("want 1 eval, got %d", len(evals))
	}
	if v, _ := evals[0].Bool("violated"); !v {
		t.Fatalf("miss objective not violated at rate 0.5 vs threshold 0.1")
	}
}

// TestDropOnlyWindowStillEvaluatesMiss pins that a window containing
// only drops (no completions) still closes and counts a 100% miss rate,
// while delay objectives skip it for lack of signal.
func TestDropOnlyWindowStillEvaluatesMiss(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs: 100,
		Objectives: []Objective{
			{Name: "miss", Series: SeriesE2E, Stat: StatMiss, Threshold: 0.10, Target: 0.99},
			{Name: "lat", Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 50, Target: 0.99},
		},
		Sink: sink,
	})
	tr.ObserveDrop(10)
	tr.ObserveDrop(20)
	tr.Finish(100)
	if wins := sink.kind("slo-window"); len(wins) != 0 {
		t.Fatalf("drop-only window emitted %d per-series events, want 0", len(wins))
	}
	evals := sink.kind("slo-eval")
	if len(evals) != 1 {
		t.Fatalf("want 1 eval (miss only), got %d", len(evals))
	}
	if name, _ := evals[0].Str("objective"); name != "miss" {
		t.Fatalf("evaluated objective %q, want miss", name)
	}
	if observed, _ := evals[0].Num("observed"); observed != 1 {
		t.Fatalf("drop-only miss rate = %v, want 1", observed)
	}
	res := tr.Results()
	if res[1].Windows != 0 {
		t.Fatalf("latency objective evaluated %d windows, want 0 (no delay signal)", res[1].Windows)
	}
	if !res[1].Met {
		t.Fatalf("latency objective with no signal should trivially be met")
	}
}

func TestPerPhaseSeries(t *testing.T) {
	sink := &collect{}
	tr := mustNew(t, Config{
		WindowMs: 100,
		Objectives: []Objective{{
			Name: "up", Series: SeriesUplink, Stat: StatQuantile(0.99), Threshold: 3, Target: 0.99,
		}},
		Sink: sink,
	})
	tr.ObserveRequest(10, 4, 1, 2, 1, 8, false)
	tr.Finish(100)
	wins := sink.kind("slo-window")
	if len(wins) != int(numSeries) {
		t.Fatalf("want %d per-series window events, got %d", numSeries, len(wins))
	}
	bySeries := map[string]obs.Event{}
	for _, e := range wins {
		s, _ := e.Str("series")
		bySeries[s] = e
	}
	for _, want := range []struct {
		series string
		mean   float64
	}{{"e2e", 8}, {"uplink", 4}, {"queue", 1}, {"service", 2}, {"downlink", 1}} {
		e, ok := bySeries[want.series]
		if !ok {
			t.Fatalf("missing series %s", want.series)
		}
		if m, _ := e.Num("mean_ms"); m != want.mean {
			t.Errorf("series %s mean = %v, want %v", want.series, m, want.mean)
		}
	}
	evals := sink.kind("slo-eval")
	if len(evals) != 1 {
		t.Fatalf("want 1 eval, got %d", len(evals))
	}
	if v, _ := evals[0].Bool("violated"); !v {
		t.Fatalf("uplink p99=5>3 not flagged (uplink sample 4ms → bucket bound 5)")
	}
}

func TestNilTrackerSafeAndZeroAlloc(t *testing.T) {
	var tr *Tracker
	allocs := testing.AllocsPerRun(100, func() {
		tr.Observe(1, 2, false)
		tr.ObserveRequest(1, 1, 1, 1, 1, 4, false)
		tr.ObserveDrop(1)
		tr.Finish(10)
		_ = tr.Results()
		_ = tr.WindowMs()
	})
	if allocs != 0 {
		t.Fatalf("nil tracker allocated %v per run, want 0", allocs)
	}
}

// TestSteadyStateObserveZeroAlloc pins that feeding a configured tracker
// is allocation-free once windows exist (ring slots are reset in place;
// events only allocate at window close, excluded here by a huge window).
func TestSteadyStateObserveZeroAlloc(t *testing.T) {
	tr := mustNew(t, Config{
		WindowMs:   1e12,
		Objectives: []Objective{{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 10, Target: 0.99}},
	})
	tr.ObserveRequest(0, 1, 1, 1, 1, 4, false)
	now := 1.0
	allocs := testing.AllocsPerRun(1000, func() {
		tr.ObserveRequest(now, 1, 1, 1, 1, 4, false)
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveRequest allocated %v per run, want 0", allocs)
	}
}

func TestRegistryGauges(t *testing.T) {
	reg := obs.NewRegistry()
	tr := mustNew(t, Config{
		WindowMs: 10,
		Objectives: []Objective{{
			Name: "lat", Series: SeriesE2E, Stat: StatMean, Threshold: 50, Target: 0.9,
		}},
		Metrics: reg,
	})
	tr.Observe(5, 500, false)
	tr.Observe(15, 1, false) // closes window 0 (violating)
	snap := reg.Snapshot()
	if v, ok := snap.Gauges["slo.obj.lat.firing"]; !ok || v != 1 {
		t.Fatalf("slo.obj.lat.firing = %v (ok=%v), want 1", v, ok)
	}
	if v := snap.Gauges["slo.window.e2e.mean_ms"]; v != 500 {
		t.Fatalf("slo.window.e2e.mean_ms = %v, want 500", v)
	}
	if v := snap.Gauges["slo.obj.lat.compliance_pct"]; v != 0 {
		t.Fatalf("compliance gauge = %v, want 0 after one violating window", v)
	}
	if v := snap.Gauges["slo.window_ms"]; v != 10 {
		t.Fatalf("slo.window_ms gauge = %v, want 10", v)
	}
	tr.Finish(20)
	snap = reg.Snapshot()
	if v := snap.Gauges["slo.obj.lat.firing"]; v != 0 {
		t.Fatalf("firing gauge = %v after Finish, want 0", v)
	}
	if v := snap.Gauges["slo.obj.lat.compliance_pct"]; v != 50 {
		t.Fatalf("final compliance gauge = %v, want 50", v)
	}
}

func TestNewValidation(t *testing.T) {
	valid := []Objective{{Series: SeriesE2E, Stat: StatMean, Threshold: 1, Target: 0.99}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero window", Config{WindowMs: 0, Objectives: valid}},
		{"negative window", Config{WindowMs: -5, Objectives: valid}},
		{"no objectives", Config{WindowMs: 10}},
		{"bad quantile", Config{WindowMs: 10, Objectives: []Objective{{Stat: StatQuantile(1.5), Threshold: 1, Target: 0.99}}}},
		{"bad target", Config{WindowMs: 10, Objectives: []Objective{{Stat: StatMean, Threshold: 1, Target: 1.5}}}},
		{"miss on phase series", Config{WindowMs: 10, Objectives: []Objective{{Series: SeriesUplink, Stat: StatMiss, Threshold: 0.1, Target: 0.99}}}},
		{"negative threshold", Config{WindowMs: 10, Objectives: []Objective{{Stat: StatMean, Threshold: -1, Target: 0.99}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

func TestNameDerivationAndDedup(t *testing.T) {
	tr := mustNew(t, Config{
		WindowMs: 10,
		Objectives: []Objective{
			{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 10, Target: 0.99},
			{Series: SeriesE2E, Stat: StatQuantile(0.95), Threshold: 20, Target: 0.99},
			{Series: SeriesUplink, Stat: StatMean, Threshold: 5, Target: 0.9},
		},
	})
	got := []string{}
	for _, r := range tr.Results() {
		got = append(got, r.Name)
	}
	want := []string{"e2e_p95", "e2e_p95_2", "uplink_mean"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}
