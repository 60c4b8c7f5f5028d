// Package cluster is the edge-cluster runtime simulator: it replays IoT
// request streams against an assignment, modeling uplink network delay
// (from the topology-derived delay matrix), FIFO queueing and service at
// each edge server, and downlink delay back to the device. It reports
// end-to-end latency distributions, deadline misses, per-edge utilization
// and drops, and supports runtime reconfiguration, device churn and edge
// failure injection — the substrate for the end-to-end and dynamic
// experiments (T3, F7).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"taccc/internal/obs"
	"taccc/internal/obs/slo"
	"taccc/internal/sim"
	"taccc/internal/stats"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// Discipline selects how an edge server schedules queued requests.
type Discipline int

// Queueing disciplines.
const (
	// DisciplineFIFO serves one request at a time in arrival order
	// (the default).
	DisciplineFIFO Discipline = iota
	// DisciplinePS is egalitarian processor sharing: all queued
	// requests progress simultaneously at rate/k each.
	DisciplinePS
)

// Config describes a simulation run. All fields are required unless noted.
type Config struct {
	// UplinkMs[i][j] is the request delay from device i to edge j;
	// DownlinkMs[i][j] the response delay (often smaller payloads). If
	// DownlinkMs is nil, UplinkMs is used for both directions.
	UplinkMs   [][]float64
	DownlinkMs [][]float64
	// Devices holds the demand profiles; Devices[i] pairs with row i.
	Devices []workload.Device
	// ServiceRate[j] is the processing rate of edge j's one server, in
	// compute units per second; a request of c units takes c/rate
	// seconds of service.
	ServiceRate []float64
	// Assignment[i] is the edge serving device i.
	Assignment []int
	// WarmupMs excludes the initial transient from statistics.
	WarmupMs float64
	// Discipline selects FIFO (default) or processor sharing.
	Discipline Discipline
	// MaxQueue caps the number of requests queued or in service per
	// edge; arrivals beyond the cap are dropped. 0 means unlimited.
	MaxQueue int
	// Metrics, when non-nil, receives live counters as the simulation
	// progresses: cluster.requests_sent / _ok / _missed / _dropped,
	// per-edge cluster.edge_<j>.queue_depth gauges, a cluster.latency_ms
	// histogram of end-to-end latencies, and per-phase delay histograms
	// cluster.delay.{uplink,queue,service,downlink}_ms whose per-request
	// contributions sum to the end-to-end latency. Unlike Result,
	// counters include warmup traffic (they mirror what a real
	// deployment's metrics endpoint would report). Nil costs nothing.
	Metrics *obs.Registry
	// Spans, when non-nil, receives one trace per sampled request as
	// "span" events (see internal/obs.Span): a root "request" span plus
	// child spans for uplink, queue wait, service (which under processor
	// sharing absorbs the PS-server reschedules) and downlink. Traces
	// cover requests that enter the network; arrivals dropped at the
	// device (failed or unreachable edge) are never uplinked and are not
	// traced. Nil costs nothing.
	Spans obs.Sink
	// SLO, when non-nil, receives every completion (end-to-end latency
	// plus the per-phase breakdown) and drop, windowed by simulation
	// time, and evaluates the configured service-level objectives as
	// windows close. Like Metrics it covers warmup traffic (it mirrors a
	// deployment's live SLO monitor). Observations are made from the
	// single-threaded event loop at event time, so the emitted SLO
	// stream is deterministic per seed at any worker count. Nil costs
	// nothing.
	SLO *slo.Tracker
	// TraceSampleRate is the fraction of requests traced when Spans is
	// set, in [0, 1]. 0 means trace everything, so a config that only
	// sets Spans gets full traces. Sampling decisions come from a
	// dedicated RNG stream derived from Seed — never from the
	// simulation's own randomness — so attaching, detaching or sampling
	// spans cannot perturb the schedule, and the emitted span stream is
	// identical run-to-run at any worker count.
	TraceSampleRate float64
	// JitterSigma, when > 0, multiplies every per-request network delay
	// (uplink and downlink) by an independent lognormal factor with the
	// given sigma, normalized to mean 1 so average delays are preserved
	// while variance grows — wireless links are not deterministic.
	JitterSigma float64
	// Seed drives arrival randomness.
	Seed int64
}

// Outcome classifies how a request ended.
type Outcome string

// Request outcomes.
const (
	// OutcomeOK completed within its deadline (or had none).
	OutcomeOK Outcome = "ok"
	// OutcomeMissed completed after its deadline.
	OutcomeMissed Outcome = "missed"
	// OutcomeDropped never completed (failed edge, unreachable pair or
	// full queue).
	OutcomeDropped Outcome = "dropped"
)

func (c Config) validate() error {
	n := len(c.Devices)
	if n == 0 {
		return errors.New("cluster: no devices")
	}
	m := len(c.ServiceRate)
	if m == 0 {
		return errors.New("cluster: no edge servers")
	}
	if err := checkDelays(c.UplinkMs, c.DownlinkMs, n, m); err != nil {
		return err
	}
	for j, r := range c.ServiceRate {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("cluster: invalid service rate %v at edge %d", r, j)
		}
	}
	if len(c.Assignment) != n {
		return fmt.Errorf("cluster: assignment length %d, want %d", len(c.Assignment), n)
	}
	for i, j := range c.Assignment {
		if j < 0 || j >= m {
			return fmt.Errorf("cluster: device %d assigned to invalid edge %d", i, j)
		}
	}
	if c.WarmupMs < 0 {
		return fmt.Errorf("cluster: negative warmup %v", c.WarmupMs)
	}
	if c.Discipline != DisciplineFIFO && c.Discipline != DisciplinePS {
		return fmt.Errorf("cluster: unknown discipline %d", c.Discipline)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("cluster: negative MaxQueue %d", c.MaxQueue)
	}
	// jitter divides by exp(sigma^2/2), which overflows to +Inf above
	// sigma ≈ 37.68 (and at sigma = +Inf): every delay would become 0 or
	// NaN.
	if sigma := c.JitterSigma; sigma < 0 || math.IsNaN(sigma) || math.IsInf(math.Exp(sigma*sigma/2), 1) {
		return fmt.Errorf("cluster: invalid JitterSigma %v", sigma)
	}
	if c.TraceSampleRate < 0 || c.TraceSampleRate > 1 || math.IsNaN(c.TraceSampleRate) {
		return fmt.Errorf("cluster: TraceSampleRate %v outside [0,1]", c.TraceSampleRate)
	}
	return nil
}

// checkDelays validates a pair of delay matrices for n devices and m
// edges: each is n-by-m (downlink may be nil to mirror the uplink) with no
// NaN or negative entry. A +Inf uplink marks an unreachable pair, whose
// requests drop at the device; a +Inf downlink is accepted only behind
// one, because a reachable pair must be able to answer.
func checkDelays(uplink, downlink [][]float64, n, m int) error {
	check := func(label string, ms [][]float64) error {
		if len(ms) != n {
			return fmt.Errorf("cluster: %s matrix has %d rows, want %d", label, len(ms), n)
		}
		for i, row := range ms {
			if len(row) != m {
				return fmt.Errorf("cluster: %s row %d has %d cols, want %d", label, i, len(row), m)
			}
			for j, d := range row {
				if math.IsNaN(d) || d < 0 || (math.IsInf(d, 1) && !math.IsInf(uplink[i][j], 1)) {
					return fmt.Errorf("cluster: invalid %s delay %v from device %d to edge %d", label, d, i, j)
				}
			}
		}
		return nil
	}
	if err := check("uplink", uplink); err != nil || downlink == nil {
		return err
	}
	return check("downlink", downlink)
}

// Result aggregates a run's observable behaviour (post-warmup).
type Result struct {
	// Latency collects end-to-end request latencies in ms.
	Latency stats.Sample
	// Completed, DeadlineMisses and Dropped count requests.
	Completed      int
	DeadlineMisses int
	Dropped        int
	// EdgeBusyMs[j] is the total service busy time of edge j; divide by
	// the measured duration for utilization.
	EdgeBusyMs []float64
	// PeakQueue[j] is the maximum number of requests simultaneously
	// queued or in service at edge j.
	PeakQueue []int
	// DurationMs is the measured (post-warmup) horizon.
	DurationMs float64
}

// Utilization returns per-edge busy fractions over the measured window.
func (r *Result) Utilization() []float64 {
	out := make([]float64, len(r.EdgeBusyMs))
	if r.DurationMs <= 0 {
		return out
	}
	for j, b := range r.EdgeBusyMs {
		out[j] = b / r.DurationMs
	}
	return out
}

// MissRate returns the fraction of completed requests that missed their
// deadline.
func (r *Result) MissRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.DeadlineMisses) / float64(r.Completed)
}

// Simulator owns one simulation. Construct with New, optionally schedule
// reconfigurations/failures/churn, then call Run once.
type Simulator struct {
	cfg     Config
	engine  sim.Engine
	src     *xrand.Source
	arrival []workload.Arrivals

	assignment []int
	state      []deviceState
	failed     []bool
	// nextArrive[i] is device i's pending arrival event; stopping the
	// stream cancels it so a restart can never duplicate the stream.
	nextArrive []*sim.Event
	// uplink/downlink are the live delay matrices (swappable at runtime
	// via ScheduleUplinkUpdate).
	uplink   [][]float64
	downlink [][]float64
	// busyUntil[j] is edge j's next free time under FIFO.
	busyUntil []float64
	inFlight  []int
	ps        []*psServer

	met metricsSet

	// spanSrc draws trace-sampling decisions (nil when spans are off);
	// it is split from the config seed under its own label so it never
	// touches the simulation's random streams. nextTrace counts accepted
	// requests so sampled traces keep stable, gap-free-ordered IDs.
	spanSrc   *xrand.Source
	nextTrace uint64

	result Result
	ran    bool
}

// metricsSet pre-resolves the simulator's live metrics once at
// construction. With a nil registry every handle is nil and each update
// is a no-op method call on a nil receiver — the simulation schedule is
// identical either way.
type metricsSet struct {
	sent, ok, missed, dropped *obs.Counter
	latency                   *obs.Histogram
	// Per-phase delay histograms; one observation per completed request
	// each, so their sums add up to the latency histogram's sum.
	phaseUplink, phaseQueue, phaseService, phaseDownlink *obs.Histogram
	queueDepth                                           []*obs.Gauge
}

func newMetricsSet(r *obs.Registry, edges int) metricsSet {
	ms := metricsSet{
		sent:          r.Counter("cluster.requests_sent"),
		ok:            r.Counter("cluster.requests_ok"),
		missed:        r.Counter("cluster.requests_missed"),
		dropped:       r.Counter("cluster.requests_dropped"),
		latency:       r.Histogram("cluster.latency_ms", obs.DefaultLatencyBucketsMs()),
		phaseUplink:   r.Histogram("cluster.delay.uplink_ms", obs.DefaultLatencyBucketsMs()),
		phaseQueue:    r.Histogram("cluster.delay.queue_ms", obs.DefaultLatencyBucketsMs()),
		phaseService:  r.Histogram("cluster.delay.service_ms", obs.DefaultLatencyBucketsMs()),
		phaseDownlink: r.Histogram("cluster.delay.downlink_ms", obs.DefaultLatencyBucketsMs()),
		queueDepth:    make([]*obs.Gauge, edges),
	}
	for j := range ms.queueDepth {
		ms.queueDepth[j] = r.Gauge(fmt.Sprintf("cluster.edge_%d.queue_depth", j))
	}
	return ms
}

// observeDone records a completed request and its per-phase split in the
// live metrics.
func (ms *metricsSet) observeDone(outcome Outcome, latencyMs, uplinkMs, queueMs, serviceMs, downlinkMs float64) {
	if outcome == OutcomeMissed {
		ms.missed.Add(1)
	} else {
		ms.ok.Add(1)
	}
	ms.latency.Observe(latencyMs)
	ms.phaseUplink.Observe(uplinkMs)
	ms.phaseQueue.Observe(queueMs)
	ms.phaseService.Observe(serviceMs)
	ms.phaseDownlink.Observe(downlinkMs)
}

// New validates the config and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSplit(cfg.Seed, "cluster")
	s := &Simulator{
		cfg:        cfg,
		src:        src,
		arrival:    make([]workload.Arrivals, len(cfg.Devices)),
		assignment: make([]int, len(cfg.Assignment)),
		state:      make([]deviceState, len(cfg.Devices)),
		failed:     make([]bool, len(cfg.ServiceRate)),
		nextArrive: make([]*sim.Event, len(cfg.Devices)),
		busyUntil:  make([]float64, len(cfg.ServiceRate)),
		inFlight:   make([]int, len(cfg.ServiceRate)),
	}
	s.met = newMetricsSet(cfg.Metrics, len(cfg.ServiceRate))
	if cfg.Spans != nil {
		s.spanSrc = xrand.NewSplit(cfg.Seed, "trace-sample")
	}
	copy(s.assignment, cfg.Assignment)
	s.uplink = cfg.UplinkMs
	s.downlink = cfg.DownlinkMs
	for i, d := range cfg.Devices {
		a, err := workload.NewArrivals(d, src.Split(fmt.Sprintf("dev-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", i, err)
		}
		s.arrival[i] = a
		s.state[i].present = true
	}
	s.result.EdgeBusyMs = make([]float64, len(cfg.ServiceRate))
	s.result.PeakQueue = make([]int, len(cfg.ServiceRate))
	if cfg.Discipline == DisciplinePS {
		s.ps = make([]*psServer, len(cfg.ServiceRate))
		for j := range s.ps {
			s.ps[j] = &psServer{rate: cfg.ServiceRate[j], jobs: make(map[int64]*psJob)}
		}
	}
	return s, nil
}

// request is one request's trip through the simulator, timestamped in
// simulated ms.
type request struct {
	dev, edge int
	trace     obs.TraceID // 0 = untraced
	sentAt    float64     // left the device
	edgeAt    float64     // reached the edge (end of uplink), or was dropped
	start     float64     // entered service
	finish    float64     // left service
	// serviceMs is the service phase: FIFO's computed demand (which
	// finish - start reproduces only up to rounding), PS's finish - start.
	serviceMs float64
}

// psJob is one in-service request under processor sharing.
type psJob struct {
	request
	remaining float64 // compute units left
}

// psServer shares its rate equally among active jobs. Remaining work is
// advanced lazily at every arrival/completion event.
type psServer struct {
	rate   float64
	jobs   map[int64]*psJob
	nextID int64
	lastT  float64
	wake   *sim.Event
}

// advance applies elapsed virtual time to all jobs.
func (p *psServer) advance(now float64) {
	if k := len(p.jobs); k > 0 && now > p.lastT {
		done := p.rate * (now - p.lastT) / 1000 / float64(k)
		for _, j := range p.jobs {
			j.remaining -= done
		}
	}
	p.lastT = now
}

// nextCompletion returns the id and absolute time of the earliest finishing
// job, or (-1, 0) when idle.
func (p *psServer) nextCompletion(now float64) (int64, float64) {
	bestID := int64(-1)
	best := math.Inf(1)
	for id, j := range p.jobs {
		// Tie-break on id so map iteration order cannot leak into the
		// schedule.
		if j.remaining < best || (j.remaining == best && id < bestID) {
			best = j.remaining
			bestID = id
		}
	}
	if bestID < 0 {
		return -1, 0
	}
	if best < 0 {
		best = 0
	}
	return bestID, now + best*float64(len(p.jobs))*1000/p.rate
}

// Span IDs within a trace are fixed — the root request span is 1 and each
// phase child has a stable ID — so readers join phases without any
// per-trace bookkeeping.
const (
	spanRoot     obs.SpanID = 1
	spanUplink   obs.SpanID = 2
	spanQueue    obs.SpanID = 3
	spanService  obs.SpanID = 4
	spanDownlink obs.SpanID = 5
)

// sampleTrace decides whether the next accepted request is traced and
// returns its trace ID (0 = untraced). IDs count accepted requests, so a
// sampled subset keeps stable identities under any sample rate.
func (s *Simulator) sampleTrace() obs.TraceID {
	if s.cfg.Spans == nil {
		return 0
	}
	s.nextTrace++
	if r := s.cfg.TraceSampleRate; r > 0 && r < 1 && s.spanSrc.Float64() >= r {
		return 0
	}
	return obs.TraceID(s.nextTrace)
}

// childSpan emits one phase span of trace tid.
func (s *Simulator) childSpan(tid obs.TraceID, id obs.SpanID, name string, startMs, endMs float64) {
	obs.EmitSpan(s.cfg.Spans, obs.Span{
		Trace: tid, ID: id, Parent: spanRoot,
		Name: name, StartMs: startMs, EndMs: endMs,
	})
}

// emitTrace writes request r's trace when it is sampled: its phase
// children, then the root request span (sentAt to end, with the outcome)
// so a streaming reader sees a trace complete when the root arrives. A
// drop spent only its uplink; a completion's four children (uplink, queue
// wait, service, downlink) partition the root exactly.
func (s *Simulator) emitTrace(r request, end float64, outcome Outcome) {
	if r.trace == 0 {
		return
	}
	s.childSpan(r.trace, spanUplink, "uplink", r.sentAt, r.edgeAt)
	if outcome != OutcomeDropped {
		s.childSpan(r.trace, spanQueue, "queue", r.edgeAt, r.start)
		s.childSpan(r.trace, spanService, "service", r.start, r.finish)
		s.childSpan(r.trace, spanDownlink, "downlink", r.finish, end)
	}
	obs.EmitSpan(s.cfg.Spans, obs.Span{
		Trace: r.trace, ID: spanRoot, Name: "request",
		StartMs: r.sentAt, EndMs: end,
		Attrs: map[string]interface{}{
			"device":  r.dev,
			"edge":    r.edge,
			"outcome": string(outcome),
		},
	})
}

// downlinkDelay returns the response delay for (device, edge).
func (s *Simulator) downlinkDelay(i, j int) float64 {
	base := s.uplink[i][j]
	if s.downlink != nil {
		base = s.downlink[i][j]
	}
	return s.jitter(base)
}

// jitter applies the configured per-request lognormal network jitter.
// The factor exp(N(0, sigma)) has mean exp(sigma^2/2), so it is divided
// out to keep the average delay equal to the configured one.
func (s *Simulator) jitter(delayMs float64) float64 {
	sigma := s.cfg.JitterSigma
	if sigma == 0 || math.IsInf(delayMs, 1) {
		return delayMs
	}
	factor := math.Exp(s.src.Normal(0, sigma)) / math.Exp(sigma*sigma/2)
	return delayMs * factor
}

// ScheduleUplinkUpdate swaps the live delay matrices at virtual time tMs —
// the mechanism for replaying mobility-driven topology drift inside one
// simulation run. downlink may be nil to mirror the uplink. Must be called
// before Run. The matrices are used as-is (not copied); do not mutate them
// after scheduling.
func (s *Simulator) ScheduleUplinkUpdate(tMs float64, uplink, downlink [][]float64) error {
	if err := checkDelays(uplink, downlink, len(s.cfg.Devices), len(s.cfg.ServiceRate)); err != nil {
		return err
	}
	s.engine.Schedule(tMs, func(*sim.Engine) {
		s.uplink = uplink
		s.downlink = downlink
	})
	return nil
}

// ScheduleReconfigureWithPause swaps the assignment at tMs like
// ScheduleReconfigure, but sending devices whose placement changed pause
// for pauseMs (their state is migrating): their arrival streams stop and
// resume when the migration completes, unless the device churned out in
// the meantime. Must be called before Run.
func (s *Simulator) ScheduleReconfigureWithPause(tMs float64, assignment []int, pauseMs float64) error {
	if len(assignment) != len(s.cfg.Devices) {
		return fmt.Errorf("cluster: reconfigure assignment length %d, want %d", len(assignment), len(s.cfg.Devices))
	}
	for i, j := range assignment {
		if j < 0 || j >= len(s.cfg.ServiceRate) {
			return fmt.Errorf("cluster: reconfigure device %d to invalid edge %d", i, j)
		}
	}
	if pauseMs < 0 {
		return fmt.Errorf("cluster: negative migration pause %v", pauseMs)
	}
	of := make([]int, len(assignment))
	copy(of, assignment)
	s.engine.Schedule(tMs, func(e *sim.Engine) {
		for i := range of {
			if s.assignment[i] == of[i] || !s.state[i].sending() {
				continue
			}
			i := i
			s.setDevice(e, i, s.state[i].present, true)
			e.After(pauseMs, func(e *sim.Engine) { s.setDevice(e, i, s.state[i].present, false) })
		}
		copy(s.assignment, of)
	})
	return nil
}

// ScheduleReconfigure swaps the live assignment at virtual time tMs.
// Requests already in flight complete under their old edge; new arrivals
// use the new mapping. Must be called before Run.
func (s *Simulator) ScheduleReconfigure(tMs float64, assignment []int) error {
	if len(assignment) != len(s.cfg.Devices) {
		return fmt.Errorf("cluster: reconfigure assignment length %d, want %d", len(assignment), len(s.cfg.Devices))
	}
	for i, j := range assignment {
		if j < 0 || j >= len(s.cfg.ServiceRate) {
			return fmt.Errorf("cluster: reconfigure device %d to invalid edge %d", i, j)
		}
	}
	of := make([]int, len(assignment))
	copy(of, assignment)
	s.engine.Schedule(tMs, func(*sim.Engine) { copy(s.assignment, of) })
	return nil
}

// ScheduleEdgeFailure marks edge j failed at tMs: all requests targeting
// it afterwards are dropped until ScheduleEdgeRecovery. Must be called
// before Run.
func (s *Simulator) ScheduleEdgeFailure(tMs float64, j int) error {
	if j < 0 || j >= len(s.cfg.ServiceRate) {
		return fmt.Errorf("cluster: failure on invalid edge %d", j)
	}
	s.engine.Schedule(tMs, func(*sim.Engine) { s.failed[j] = true })
	return nil
}

// ScheduleEdgeRecovery clears a failure at tMs. Must be called before Run.
func (s *Simulator) ScheduleEdgeRecovery(tMs float64, j int) error {
	if j < 0 || j >= len(s.cfg.ServiceRate) {
		return fmt.Errorf("cluster: recovery on invalid edge %d", j)
	}
	s.engine.Schedule(tMs, func(*sim.Engine) { s.failed[j] = false })
	return nil
}

// ScheduleDeviceChurn sets device i's presence at tMs (join = true
// resumes arrivals, false silences the device). A device that joins
// during its migration pause starts sending when the pause ends. Must be
// called before Run.
func (s *Simulator) ScheduleDeviceChurn(tMs float64, i int, join bool) error {
	if i < 0 || i >= len(s.cfg.Devices) {
		return fmt.Errorf("cluster: churn on invalid device %d", i)
	}
	s.engine.Schedule(tMs, func(e *sim.Engine) { s.setDevice(e, i, join, s.state[i].migrating) })
	return nil
}

// scheduleNextArrival arms device i's next arrival and tracks the event so
// deactivation can cancel it (preventing duplicated streams on resume).
func (s *Simulator) scheduleNextArrival(e *sim.Engine, i int) {
	s.nextArrive[i] = e.After(s.arrival[i].NextGapMs(), func(e *sim.Engine) { s.arrive(e, i) })
}

// deviceState is a device's churn and migration state. A device sends
// while it is present (churn) and not migrating (a reconfiguration
// pause); the two change independently.
type deviceState struct{ present, migrating bool }

func (d deviceState) sending() bool { return d.present && !d.migrating }

// setDevice sets device i's presence and migration state, starting its
// arrival stream when it begins sending and cancelling the pending
// arrival when it stops.
func (s *Simulator) setDevice(e *sim.Engine, i int, present, migrating bool) {
	was := s.state[i].sending()
	s.state[i] = deviceState{present: present, migrating: migrating}
	switch now := s.state[i].sending(); {
	case now && !was:
		s.scheduleNextArrival(e, i)
	case was && !now:
		e.Cancel(s.nextArrive[i])
		s.nextArrive[i] = nil
	}
}

// arrive handles one request arrival from device i and schedules the next.
func (s *Simulator) arrive(e *sim.Engine, i int) {
	s.nextArrive[i] = nil
	if !s.state[i].sending() {
		return // stopped after this event was armed: stream stops
	}
	now := e.Now()
	j := s.assignment[i]
	s.met.sent.Add(1)
	if up := s.uplink[i][j]; !s.failed[j] && !math.IsInf(up, 1) {
		r := request{dev: i, edge: j, sentAt: now, edgeAt: now + s.jitter(up), trace: s.sampleTrace()}
		e.Schedule(r.edgeAt, func(e *sim.Engine) { s.serve(e, r) })
	} else {
		// Dropped at the device (failed or unreachable edge): never
		// uplinked, so never traced.
		s.exit(request{dev: i, edge: j, sentAt: now, edgeAt: now}, false)
	}
	s.scheduleNextArrival(e, i)
}

// serve admits request r at its edge under the configured discipline, or
// drops it there when the edge has failed or its queue is full.
func (s *Simulator) serve(e *sim.Engine, r request) {
	j := r.edge
	if s.failed[j] || (s.cfg.MaxQueue > 0 && s.inFlight[j] >= s.cfg.MaxQueue) {
		s.exit(r, false)
		return
	}
	// Admission books the request's service demand at one server's rate
	// as busy time. A PS station is busy whenever any job is present, so
	// in total this equals FIFO's accounting.
	demandMs := s.cfg.Devices[r.dev].ComputeUnits / s.cfg.ServiceRate[j] * 1000
	s.inFlight[j]++
	s.met.queueDepth[j].Set(float64(s.inFlight[j]))
	if s.inFlight[j] > s.result.PeakQueue[j] {
		s.result.PeakQueue[j] = s.inFlight[j]
	}
	if r.sentAt >= s.cfg.WarmupMs {
		s.result.EdgeBusyMs[j] += demandMs
	}
	r.start = r.edgeAt
	if s.cfg.Discipline == DisciplinePS {
		p := s.ps[j]
		p.advance(r.edgeAt)
		p.jobs[p.nextID] = &psJob{request: r, remaining: s.cfg.Devices[r.dev].ComputeUnits}
		p.nextID++
		s.reschedulePS(e, j)
		return
	}
	if s.busyUntil[j] > r.start {
		r.start = s.busyUntil[j]
	}
	r.serviceMs = demandMs
	r.finish = r.start + demandMs
	s.busyUntil[j] = r.finish
	e.Schedule(r.finish, func(*sim.Engine) { s.exit(r, true) })
}

// exit is the one place a request leaves the simulator, and the only code
// that books it: a drop when served is false (at r.edgeAt), otherwise the
// completion of its service at r.finish, which first frees its place at
// the edge and draws the downlink delay. Result counts requests sent after
// warmup; the metrics handles and the SLO tracker see every request;
// sampled requests emit their trace, the one per-request record.
func (s *Simulator) exit(r request, served bool) {
	measured := r.sentAt >= s.cfg.WarmupMs
	outcome, end := OutcomeDropped, r.edgeAt
	if !served {
		if measured {
			s.result.Dropped++
		}
		s.met.dropped.Add(1)
		s.cfg.SLO.ObserveDrop(r.edgeAt)
	} else {
		j := r.edge
		s.inFlight[j]--
		s.met.queueDepth[j].Set(float64(s.inFlight[j]))
		down := s.downlinkDelay(r.dev, j)
		end = r.finish + down
		latency := end - r.sentAt
		outcome = OutcomeOK
		if dl := s.cfg.Devices[r.dev].DeadlineMs; dl > 0 && latency > dl {
			outcome = OutcomeMissed
		}
		missed := outcome == OutcomeMissed
		if measured {
			s.result.Completed++
			s.result.Latency.Add(latency)
			if missed {
				s.result.DeadlineMisses++
			}
		}
		uplink, queue := r.edgeAt-r.sentAt, r.start-r.edgeAt
		s.met.observeDone(outcome, latency, uplink, queue, r.serviceMs, down)
		// SLO windows are keyed by service completion, not by the
		// response's arrival at the device.
		s.cfg.SLO.ObserveRequest(r.finish, uplink, queue, r.serviceMs, down, latency, missed)
	}
	s.emitTrace(r, end, outcome)
}

// reschedulePS cancels and re-arms edge j's completion wake-up.
func (s *Simulator) reschedulePS(e *sim.Engine, j int) {
	p := s.ps[j]
	if p.wake != nil {
		e.Cancel(p.wake)
		p.wake = nil
	}
	id, at := p.nextCompletion(e.Now())
	if id < 0 {
		return
	}
	p.wake = e.Schedule(at, func(e *sim.Engine) { s.completePS(e, j) })
}

// completePS finishes every job whose remaining work has drained. Jobs
// drain in admission (id) order, not map order, so metric and span
// streams are deterministic even when several jobs tie.
func (s *Simulator) completePS(e *sim.Engine, j int) {
	p := s.ps[j]
	now := e.Now()
	p.wake = nil
	p.advance(now)
	const drained = 1e-9
	var done []int64
	for id, job := range p.jobs {
		if job.remaining <= drained {
			done = append(done, id)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	for _, id := range done {
		job := p.jobs[id]
		delete(p.jobs, id)
		// Under PS a job is in service from arrival, so its queue-wait
		// phase is empty and service absorbs the sharing slowdown.
		job.finish, job.serviceMs = now, now-job.start
		s.exit(job.request, true)
	}
	s.reschedulePS(e, j)
}

// Run executes the simulation for durationMs of virtual time and returns
// the collected result. Run may be called only once.
func (s *Simulator) Run(durationMs float64) (*Result, error) {
	if s.ran {
		return nil, errors.New("cluster: Run called twice")
	}
	if durationMs <= s.cfg.WarmupMs {
		return nil, fmt.Errorf("cluster: duration %v must exceed warmup %v", durationMs, s.cfg.WarmupMs)
	}
	s.ran = true
	for i := range s.cfg.Devices {
		s.scheduleNextArrival(&s.engine, i)
	}
	s.engine.Run(durationMs)
	s.cfg.SLO.Finish(durationMs)
	s.result.DurationMs = durationMs - s.cfg.WarmupMs
	return &s.result, nil
}
