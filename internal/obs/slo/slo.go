// Package slo is the streaming service-level-objective plane: rolling
// fixed-width windows over the cluster simulator's end-to-end and
// per-phase delay observations, evaluated against declared objectives
// ("p95 e2e delay ≤ 20 ms for 99% of windows") with error-budget
// accounting, burn-rate computation, and typed fire/resolve alert
// events.
//
// Windows advance on *simulated* time: every observation carries its
// sim-time timestamp and the tracker never reads a clock, so the entire
// SLO stream — windowed quantiles, budget arithmetic, alert timeline —
// is a pure function of (seed, configuration) and stays byte-identical
// at any -workers setting. taclint's detrand analyzer enforces the
// no-wall-clock contract over this package.
//
// Like every obs plane, the tracker is optional, nil-safe and free when
// off: a nil *Tracker no-ops every method without allocating, so the
// simulator threads it through unconditionally.
package slo

import (
	"fmt"
	"math"

	"taccc/internal/obs"
)

// Series identifies one tracked delay distribution: the end-to-end
// latency or one of the simulator's per-phase components.
type Series int

// Tracked series, in emission order. The four phase series mirror the
// cluster.delay.* histograms; SeriesE2E mirrors cluster.latency_ms.
const (
	SeriesE2E Series = iota
	SeriesUplink
	SeriesQueue
	SeriesService
	SeriesDownlink
	numSeries
)

var seriesNames = [numSeries]string{"e2e", "uplink", "queue", "service", "downlink"}

// String returns the series' wire name ("e2e", "uplink", ...).
func (s Series) String() string {
	if s < 0 || s >= numSeries {
		return fmt.Sprintf("series(%d)", int(s))
	}
	return seriesNames[s]
}

// SeriesByName resolves a wire name back to its Series.
func SeriesByName(name string) (Series, bool) {
	for i, n := range seriesNames {
		if n == name {
			return Series(i), true
		}
	}
	return 0, false
}

// Stat selects which windowed statistic an objective thresholds.
type Stat struct {
	// Kind is "quantile", "mean" or "miss".
	Kind string
	// Q is the quantile in (0, 1) when Kind is "quantile".
	Q float64
}

// Stat constructors / well-known stats.
var (
	StatMean = Stat{Kind: "mean"}
	// StatMiss is the window's miss rate: (deadline misses + drops) /
	// (completions + drops). It only applies to SeriesE2E.
	StatMiss = Stat{Kind: "miss"}
)

// StatQuantile returns the quantile statistic for q in (0, 1).
func StatQuantile(q float64) Stat { return Stat{Kind: "quantile", Q: q} }

// String renders the stat in spec syntax ("p95", "mean", "miss").
func (s Stat) String() string {
	if s.Kind == "quantile" {
		return "p" + trimFloat(s.Q*100)
	}
	return s.Kind
}

// trimFloat formats v without trailing zeros (95, 99.9).
func trimFloat(v float64) string {
	out := fmt.Sprintf("%g", v)
	return out
}

// Objective is one service-level objective: a thresholded windowed
// statistic plus the fraction of windows that must comply.
type Objective struct {
	// Name identifies the objective in events, metrics and reports. It
	// must be metric-name safe ([a-z0-9_]); New derives "<series>_<stat>"
	// when empty, deduplicating with numeric suffixes.
	Name string
	// Series and Stat pick the windowed statistic ("p95 of e2e").
	Series Series
	Stat   Stat
	// Threshold is the compliance bound: a window complies when the
	// statistic is <= Threshold (milliseconds for delay stats, a
	// fraction in [0,1] for StatMiss).
	Threshold float64
	// Target is the compliance objective: the fraction of (non-empty)
	// windows that must comply, in (0, 1]. The error budget allows
	// (1-Target) of windows to violate.
	Target float64
}

// validate checks one objective.
func (o Objective) validate() error {
	switch o.Stat.Kind {
	case "quantile":
		if !(o.Stat.Q > 0 && o.Stat.Q < 1) {
			return fmt.Errorf("slo: objective %s: quantile %v outside (0,1)", o.Name, o.Stat.Q)
		}
	case "mean":
	case "miss":
		if o.Series != SeriesE2E {
			return fmt.Errorf("slo: objective %s: miss rate is only defined on the e2e series", o.Name)
		}
		if o.Threshold < 0 || o.Threshold > 1 {
			return fmt.Errorf("slo: objective %s: miss threshold %v outside [0,1]", o.Name, o.Threshold)
		}
	default:
		return fmt.Errorf("slo: objective %s: unknown stat kind %q", o.Name, o.Stat.Kind)
	}
	if o.Series < 0 || o.Series >= numSeries {
		return fmt.Errorf("slo: objective %s: unknown series %d", o.Name, int(o.Series))
	}
	if math.IsNaN(o.Threshold) || math.IsInf(o.Threshold, 0) || (o.Stat.Kind != "miss" && o.Threshold < 0) {
		return fmt.Errorf("slo: objective %s: invalid threshold %v", o.Name, o.Threshold)
	}
	if !(o.Target > 0 && o.Target <= 1) {
		return fmt.Errorf("slo: objective %s: compliance target %v outside (0,1]", o.Name, o.Target)
	}
	return nil
}

// Spec renders the objective in the -slo flag's spec syntax.
func (o Objective) Spec() string {
	return fmt.Sprintf("%s.%s<=%g@%g", o.Series, o.Stat, o.Threshold, o.Target*100)
}

// Config configures a Tracker. Sink and Metrics are optional. The SLO
// stream goes to its own sink, never the simulator's event stream, and
// its series all carry the slo. prefix, which archives leave out of
// metrics.json, so archived events.jsonl/metrics.json stay
// byte-identical with the plane on or off.
type Config struct {
	// WindowMs is the fixed window width in simulated milliseconds
	// (required, > 0).
	WindowMs float64
	// Objectives are evaluated against every closed non-empty window.
	Objectives []Objective
	// Sink receives the SLO event stream ("slo-window", "slo-eval",
	// "slo-alert", "slo-objective" events); runs archive it as slo.jsonl.
	Sink obs.Sink
	// Metrics receives live slo.* gauges (current-window quantiles,
	// budget, burn, firing flags) for the telemetry server and tactop. A
	// CLI passes its run's one registry.
	Metrics *obs.Registry
}

// burnLookback is the number of recent windows the burn rate is computed
// over.
const burnLookback = 10

// windowHist is one series' histogram for the current window. Bounds are
// shared across series and windows; counts are reset in place on
// rotation, so steady-state observation is allocation-free.
type windowHist struct {
	counts []int64
	count  int64
	sum    float64
}

func (w *windowHist) observe(bounds []float64, v float64) {
	w.counts[obs.Bucket(bounds, v)]++
	w.count++
	w.sum += v
}

func (w *windowHist) reset() {
	for i := range w.counts {
		w.counts[i] = 0
	}
	w.count = 0
	w.sum = 0
}

// snapshot views the window as an obs.HistogramSnapshot without copying
// (callers must not retain it past the next reset). A NaN or infinite
// observation leaves the mean non-finite; it is then reported the way
// finiteQuantile reports the overflow bucket, as twice the last bound, so
// the window's mean_ms, its mean gauge and a mean objective's observed
// value stay JSON-encodable and the window violates a mean objective.
func (w *windowHist) snapshot(bounds []float64) obs.HistogramSnapshot {
	s := obs.HistogramSnapshot{Count: w.count, Sum: w.sum, Bounds: bounds, Counts: w.counts}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) {
			s.Mean = 2 * bounds[len(bounds)-1]
		}
	}
	return s
}

// objState is one objective's accounting across closed windows.
type objState struct {
	windows    int // non-empty windows with signal for this objective
	violations int
	firing     bool
	alerts     int // fire transitions
	recent     [burnLookback]bool
	recentN    int
	recentIdx  int
	recentBad  int
	// last evaluated values, for Results and final gauges.
	lastObserved float64
	lastBurn     float64
}

// ObjectiveResult is one objective's final (or current) accounting.
type ObjectiveResult struct {
	Objective
	// Windows is the number of evaluated (non-empty) windows; Violations
	// how many of them breached the threshold.
	Windows    int
	Violations int
	// CompliancePct is 100 * (1 - Violations/Windows); 100 when no
	// window carried signal.
	CompliancePct float64
	// BudgetTotal is the violation allowance (1-Target)*Windows in
	// window units; BudgetRemaining = BudgetTotal - Violations (negative
	// when the budget is blown).
	BudgetTotal     float64
	BudgetRemaining float64
	// BurnRate is the violation rate over the lookback divided by the
	// allowed rate (1 = burning exactly the budget).
	BurnRate float64
	// Alerts counts fire transitions; Firing reports an unresolved alert
	// (always false after Finish, which force-resolves).
	Alerts int
	Firing bool
	// Met reports CompliancePct >= 100*Target.
	Met bool
}

// Tracker aggregates observations into rolling windows and evaluates
// the configured objectives as windows close. Not safe for concurrent
// use: during a simulation only the run's observer goroutine drives it,
// in nondecreasing sim-time order, and Run calls Finish after joining
// that goroutine. All methods no-op on a nil receiver.
type Tracker struct {
	cfg    Config
	bounds []float64

	cur     int64 // current window index, -1 before the first observation
	started bool
	win     [numSeries]windowHist
	missed  int64 // deadline misses in the current window
	dropped int64 // drops in the current window

	objs     []objState
	closed   int64 // non-empty windows closed
	finished bool

	met trackerMetrics
}

// trackerMetrics pre-resolves the tracker's live gauges (all nil when
// Config.Metrics is nil — every update is then a nil-receiver no-op).
type trackerMetrics struct {
	windowIdx, windowStart    *obs.Gauge
	seriesP50, seriesP95      [numSeries]*obs.Gauge
	seriesP99, seriesMean     [numSeries]*obs.Gauge
	seriesCount               [numSeries]*obs.Gauge
	missRate                  *obs.Gauge
	windowsTotal, alertsTotal *obs.Counter
	objCompliance, objBudget  []*obs.Gauge
	objBurn, objFiring        []*obs.Gauge
	objThreshold, objTarget   []*obs.Gauge
	objWindows, objViolations []*obs.Gauge
}

// New validates cfg, defaults objective names, and builds a tracker.
func New(cfg Config) (*Tracker, error) {
	if !(cfg.WindowMs > 0) || math.IsInf(cfg.WindowMs, 0) {
		return nil, fmt.Errorf("slo: window width %v must be > 0", cfg.WindowMs)
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives configured")
	}
	objs := make([]Objective, len(cfg.Objectives))
	copy(objs, cfg.Objectives)
	used := map[string]bool{}
	for i := range objs {
		if objs[i].Name == "" {
			objs[i].Name = fmt.Sprintf("%s_%s", objs[i].Series, objs[i].Stat)
		}
		for n := 2; used[objs[i].Name]; n++ {
			objs[i].Name = fmt.Sprintf("%s_%s_%d", objs[i].Series, objs[i].Stat, n)
		}
		used[objs[i].Name] = true
		if err := objs[i].validate(); err != nil {
			return nil, err
		}
	}
	cfg.Objectives = objs
	t := &Tracker{cfg: cfg, bounds: obs.DefaultLatencyBucketsMs(), cur: -1}
	for i := range t.win {
		t.win[i].counts = make([]int64, len(t.bounds)+1)
	}
	t.objs = make([]objState, len(objs))
	t.initMetrics()
	return t, nil
}

// initMetrics resolves every gauge once; with a nil registry all handles
// are nil and updates are free.
func (t *Tracker) initMetrics() {
	r := t.cfg.Metrics
	t.met.windowIdx = r.Gauge("slo.window.index")
	t.met.windowStart = r.Gauge("slo.window.start_ms")
	r.Gauge("slo.window_ms").Set(t.cfg.WindowMs)
	for s := Series(0); s < numSeries; s++ {
		p := "slo.window." + s.String() + "."
		t.met.seriesP50[s] = r.Gauge(p + "p50_ms")
		t.met.seriesP95[s] = r.Gauge(p + "p95_ms")
		t.met.seriesP99[s] = r.Gauge(p + "p99_ms")
		t.met.seriesMean[s] = r.Gauge(p + "mean_ms")
		t.met.seriesCount[s] = r.Gauge(p + "count")
	}
	t.met.missRate = r.Gauge("slo.window.e2e.miss_rate")
	t.met.windowsTotal = r.Counter("slo.windows_total")
	t.met.alertsTotal = r.Counter("slo.alerts_total")
	for _, o := range t.cfg.Objectives {
		p := "slo.obj." + o.Name + "."
		t.met.objCompliance = append(t.met.objCompliance, r.Gauge(p+"compliance_pct"))
		t.met.objBudget = append(t.met.objBudget, r.Gauge(p+"budget_remaining"))
		t.met.objBurn = append(t.met.objBurn, r.Gauge(p+"burn_rate"))
		t.met.objFiring = append(t.met.objFiring, r.Gauge(p+"firing"))
		t.met.objThreshold = append(t.met.objThreshold, r.Gauge(p+"threshold"))
		t.met.objTarget = append(t.met.objTarget, r.Gauge(p+"target_pct"))
		t.met.objWindows = append(t.met.objWindows, r.Gauge(p+"windows"))
		t.met.objViolations = append(t.met.objViolations, r.Gauge(p+"violations"))
		t.met.objThreshold[len(t.met.objThreshold)-1].Set(o.Threshold)
		t.met.objTarget[len(t.met.objTarget)-1].Set(100 * o.Target)
		t.met.objCompliance[len(t.met.objCompliance)-1].Set(100)
	}
}

// WindowMs returns the configured window width (0 on a nil receiver).
func (t *Tracker) WindowMs() float64 {
	if t == nil {
		return 0
	}
	return t.cfg.WindowMs
}

// Observe records one end-to-end observation at sim time nowMs (used by
// static placement checks; the simulator uses ObserveRequest to feed the
// phase series too). Timestamps must be nondecreasing.
func (t *Tracker) Observe(nowMs, latencyMs float64, missed bool) {
	if t == nil || t.finished {
		return
	}
	t.advance(nowMs)
	t.win[SeriesE2E].observe(t.bounds, latencyMs)
	if missed {
		t.missed++
	}
}

// ObserveRequest records one completed request: its end-to-end latency
// plus the per-phase breakdown (uplink+queue+service+downlink ==
// latency). nowMs is the completion sim time; timestamps must be
// nondecreasing.
func (t *Tracker) ObserveRequest(nowMs, uplinkMs, queueMs, serviceMs, downlinkMs, latencyMs float64, missed bool) {
	if t == nil || t.finished {
		return
	}
	t.advance(nowMs)
	t.win[SeriesE2E].observe(t.bounds, latencyMs)
	t.win[SeriesUplink].observe(t.bounds, uplinkMs)
	t.win[SeriesQueue].observe(t.bounds, queueMs)
	t.win[SeriesService].observe(t.bounds, serviceMs)
	t.win[SeriesDownlink].observe(t.bounds, downlinkMs)
	if missed {
		t.missed++
	}
}

// ObserveDrop records one dropped request at sim time nowMs; drops count
// against miss-rate objectives but contribute no delay samples.
func (t *Tracker) ObserveDrop(nowMs float64) {
	if t == nil || t.finished {
		return
	}
	t.advance(nowMs)
	t.dropped++
}

// Finish closes the final (partial) window, force-resolves firing alerts
// with reason "end-of-run", and emits one "slo-objective" summary event
// per objective. Further observations are ignored.
func (t *Tracker) Finish(endMs float64) {
	if t == nil || t.finished {
		return
	}
	t.finished = true
	if t.started {
		t.closeWindow(endMs)
	}
	for i := range t.cfg.Objectives {
		o := &t.cfg.Objectives[i]
		st := &t.objs[i]
		if st.firing {
			st.firing = false
			t.met.objFiring[i].Set(0)
			t.emitAlert(o, st, t.cur, endMs, "resolved", "end-of-run")
		}
	}
	for i := range t.cfg.Objectives {
		t.emitObjective(i)
	}
}

// Results returns every objective's accounting so far (call after
// Finish for final numbers). Nil-safe.
func (t *Tracker) Results() []ObjectiveResult {
	if t == nil {
		return nil
	}
	out := make([]ObjectiveResult, len(t.cfg.Objectives))
	for i, o := range t.cfg.Objectives {
		out[i] = t.result(o, &t.objs[i])
	}
	return out
}

func (t *Tracker) result(o Objective, st *objState) ObjectiveResult {
	r := ObjectiveResult{
		Objective:  o,
		Windows:    st.windows,
		Violations: st.violations,
		Alerts:     st.alerts,
		Firing:     st.firing,
		BurnRate:   st.lastBurn,
	}
	r.CompliancePct = 100.0
	if st.windows > 0 {
		r.CompliancePct = 100 * (1 - float64(st.violations)/float64(st.windows))
	}
	r.BudgetTotal = (1 - o.Target) * float64(st.windows)
	r.BudgetRemaining = r.BudgetTotal - float64(st.violations)
	r.Met = r.CompliancePct >= 100*o.Target-1e-9
	return r
}

// advance rotates the ring forward to the window containing nowMs,
// closing every elapsed window in order (empty windows are skipped: no
// traffic carries no SLO signal).
func (t *Tracker) advance(nowMs float64) {
	idx := int64(math.Floor(nowMs / t.cfg.WindowMs))
	if idx < 0 {
		idx = 0
	}
	if !t.started {
		t.started = true
		t.cur = idx
		return
	}
	for t.cur < idx {
		t.closeWindow((float64(t.cur) + 1) * t.cfg.WindowMs)
		t.cur++
	}
}

// finiteQuantile is HistogramSnapshot.Quantile with the +Inf overflow
// answer ("beyond the last bucket") mapped to twice the last bound, so
// windowed quantiles stay JSON-encodable and comparable.
func finiteQuantile(s obs.HistogramSnapshot, q float64) float64 {
	v := s.Quantile(q)
	if math.IsInf(v, 1) {
		return 2 * s.Bounds[len(s.Bounds)-1]
	}
	return v
}

// closeWindow seals the current window at endMs: emits its per-series
// quantile events, evaluates every objective (emitting "slo-eval" and
// alert transitions), updates the live gauges, and resets the ring slot.
// Empty windows (no completions and no drops) are skipped entirely.
func (t *Tracker) closeWindow(endMs float64) {
	completions := t.win[SeriesE2E].count
	if completions == 0 && t.dropped == 0 {
		return
	}
	startMs := float64(t.cur) * t.cfg.WindowMs
	t.closed++
	t.met.windowsTotal.Inc()
	t.met.windowIdx.Set(float64(t.cur))
	t.met.windowStart.Set(startMs)

	missRate := 0.0
	if n := completions + t.dropped; n > 0 {
		missRate = float64(t.missed+t.dropped) / float64(n)
	}

	snaps := [numSeries]obs.HistogramSnapshot{}
	for s := Series(0); s < numSeries; s++ {
		snaps[s] = t.win[s].snapshot(t.bounds)
		if snaps[s].Count == 0 {
			continue
		}
		p50 := finiteQuantile(snaps[s], 0.50)
		p95 := finiteQuantile(snaps[s], 0.95)
		p99 := finiteQuantile(snaps[s], 0.99)
		t.met.seriesP50[s].Set(p50)
		t.met.seriesP95[s].Set(p95)
		t.met.seriesP99[s].Set(p99)
		t.met.seriesMean[s].Set(snaps[s].Mean)
		t.met.seriesCount[s].Set(float64(snaps[s].Count))
		fields := map[string]interface{}{
			"window":   t.cur,
			"start_ms": startMs,
			"end_ms":   endMs,
			"series":   s.String(),
			"count":    snaps[s].Count,
			"mean_ms":  snaps[s].Mean,
			"p50_ms":   p50,
			"p95_ms":   p95,
			"p99_ms":   p99,
		}
		if s == SeriesE2E {
			fields["missed"] = t.missed
			fields["dropped"] = t.dropped
			fields["miss_rate"] = missRate
		}
		obs.Emit(t.cfg.Sink, "slo-window", fields)
	}
	t.met.missRate.Set(missRate)

	for i := range t.cfg.Objectives {
		t.evaluate(i, &snaps, missRate, endMs)
	}

	for s := range t.win {
		t.win[s].reset()
	}
	t.missed, t.dropped = 0, 0
}

// evaluate applies objective i to the closed window's snapshots.
func (t *Tracker) evaluate(i int, snaps *[numSeries]obs.HistogramSnapshot, missRate, endMs float64) {
	o := &t.cfg.Objectives[i]
	st := &t.objs[i]
	var observed float64
	switch o.Stat.Kind {
	case "miss":
		observed = missRate
	case "mean":
		if snaps[o.Series].Count == 0 {
			return // no signal for this objective in this window
		}
		observed = snaps[o.Series].Mean
	default: // quantile
		if snaps[o.Series].Count == 0 {
			return
		}
		observed = finiteQuantile(snaps[o.Series], o.Stat.Q)
	}
	violated := observed > o.Threshold
	st.windows++
	st.lastObserved = observed
	if violated {
		st.violations++
	}
	// Burn-rate ring over the lookback.
	if st.recentN == len(st.recent) {
		if st.recent[st.recentIdx] {
			st.recentBad--
		}
	} else {
		st.recentN++
	}
	st.recent[st.recentIdx] = violated
	if violated {
		st.recentBad++
	}
	st.recentIdx = (st.recentIdx + 1) % len(st.recent)
	allowedRate := 1 - o.Target
	if allowedRate < 1e-9 {
		allowedRate = 1e-9
	}
	st.lastBurn = float64(st.recentBad) / float64(st.recentN) / allowedRate
	if st.lastBurn > 1e6 {
		st.lastBurn = 1e6
	}

	res := t.result(*o, st)
	obs.Emit(t.cfg.Sink, "slo-eval", map[string]interface{}{
		"objective":        o.Name,
		"window":           t.cur,
		"end_ms":           endMs,
		"observed":         observed,
		"threshold":        o.Threshold,
		"violated":         violated,
		"budget_remaining": res.BudgetRemaining,
		"burn_rate":        st.lastBurn,
	})
	t.met.objCompliance[i].Set(res.CompliancePct)
	t.met.objBudget[i].Set(res.BudgetRemaining)
	t.met.objBurn[i].Set(st.lastBurn)
	t.met.objWindows[i].Set(float64(st.windows))
	t.met.objViolations[i].Set(float64(st.violations))

	// An alert fires on the first violating window and resolves on the
	// first compliant one.
	if violated && !st.firing {
		st.firing = true
		st.alerts++
		t.met.alertsTotal.Inc()
		t.met.objFiring[i].Set(1)
		t.emitAlert(o, st, t.cur, endMs, "firing", "")
	} else if !violated && st.firing {
		st.firing = false
		t.met.objFiring[i].Set(0)
		t.emitAlert(o, st, t.cur, endMs, "resolved", "recovered")
	}
}

// emitAlert writes one "slo-alert" transition event.
func (t *Tracker) emitAlert(o *Objective, st *objState, window int64, atMs float64, state, reason string) {
	res := t.result(*o, st)
	fields := map[string]interface{}{
		"objective":        o.Name,
		"state":            state,
		"window":           window,
		"at_ms":            atMs,
		"observed":         st.lastObserved,
		"threshold":        o.Threshold,
		"budget_remaining": res.BudgetRemaining,
		"burn_rate":        st.lastBurn,
	}
	if reason != "" {
		fields["reason"] = reason
	}
	obs.Emit(t.cfg.Sink, "slo-alert", fields)
}

// emitObjective writes objective i's final "slo-objective" summary event
// and refreshes its gauges.
func (t *Tracker) emitObjective(i int) {
	o := t.cfg.Objectives[i]
	st := &t.objs[i]
	res := t.result(o, st)
	obs.Emit(t.cfg.Sink, "slo-objective", map[string]interface{}{
		"objective":        o.Name,
		"series":           o.Series.String(),
		"stat":             o.Stat.String(),
		"threshold":        o.Threshold,
		"target_pct":       100 * o.Target,
		"windows":          res.Windows,
		"violations":       res.Violations,
		"compliance_pct":   res.CompliancePct,
		"budget_total":     res.BudgetTotal,
		"budget_remaining": res.BudgetRemaining,
		"alerts":           res.Alerts,
		"met":              res.Met,
	})
	t.met.objCompliance[i].Set(res.CompliancePct)
	t.met.objBudget[i].Set(res.BudgetRemaining)
	t.met.objWindows[i].Set(float64(res.Windows))
	t.met.objViolations[i].Set(float64(res.Violations))
}
