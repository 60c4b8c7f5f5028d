// Package cluster is the edge-cluster runtime simulator: it replays IoT
// request streams against an assignment, modeling uplink network delay
// (from the topology-derived delay matrix), FIFO queueing and service at
// each edge server, and downlink delay back to the device. It reports
// end-to-end latency distributions, deadline misses, per-edge utilization
// and drops, and supports runtime reconfiguration with migration pauses,
// delay-matrix updates and edge failure injection — the substrate for
// the end-to-end and dynamic experiments (T3, F7).
package cluster

import (
	"errors"
	"fmt"
	"math"

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
	// deployment's metrics endpoint would report). The event loop sets
	// requests_sent and the queue-depth gauges at event time; every
	// other observation comes from the run's one observer goroutine, in
	// exit order, so a live read lags the loop by less than two batches
	// of 512 exits, and Run returns once every exit is booked. Nil costs
	// nothing.
	Metrics *obs.Registry
	// Spans, when non-nil, receives one trace per sampled request as
	// "span" events (see internal/obs.Span): a root "request" span plus
	// child spans for uplink, queue wait, service (which under processor
	// sharing absorbs the PS-server reschedules) and downlink. Traces
	// cover requests that enter the network; arrivals dropped at the
	// device (failed or unreachable edge) are never uplinked and are not
	// traced. Spans are emitted from the run's one observer goroutine, in
	// exit order. Nil costs nothing.
	Spans obs.Sink
	// SLO, when non-nil, receives every completion (end-to-end latency
	// plus the per-phase breakdown) and drop, windowed by simulation
	// time, and evaluates the configured service-level objectives as
	// windows close. Like Metrics it covers warmup traffic (it mirrors a
	// deployment's live SLO monitor). Observations come from the run's
	// one observer goroutine, in exit order, and Run calls Finish once
	// that goroutine has booked every exit, so the emitted SLO stream is
	// deterministic per seed at any worker count; its live gauges lag
	// the event loop as Metrics' do. Nil costs nothing.
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
	if c.WarmupMs < 0 || math.IsNaN(c.WarmupMs) || math.IsInf(c.WarmupMs, 1) {
		return fmt.Errorf("cluster: warmup %v must be finite and >= 0", c.WarmupMs)
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
// reconfigurations, delay updates and failures, then call Run once.
type Simulator struct {
	cfg     Config
	engine  sim.Engine[event]
	src     *xrand.Source
	arrival []workload.Arrivals

	assignment []int
	// migrating[i] is true while device i pauses for a migration; it
	// sends only while it is false.
	migrating []bool
	failed    []bool
	// arriveGen[i] is device i's arrival generation. Stopping the stream
	// bumps it, so the pending arrival, stamped with the old value, is
	// skipped and a restart can never duplicate the stream.
	arriveGen []uint64
	// reqs is a slab of requests between arrival and the end of FIFO
	// service (or PS admission); free lists its vacant slots.
	reqs []request
	free []int32
	// control holds the rare scheduled closures: failures, recoveries,
	// reconfigurations, uplink updates and migration-pause ends.
	control []func()
	// uplink/downlink are the live delay matrices (swappable at runtime
	// via ScheduleUplinkUpdate).
	uplink   [][]float64
	downlink [][]float64
	// busyUntil[j] is edge j's next free time under FIFO.
	busyUntil []float64
	inFlight  []int
	ps        []*psServer

	met metricsSet
	// observer books each request exit in the observability planes off
	// the event loop; Run sets it when any plane is on.
	observer *observer

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
		migrating:  make([]bool, len(cfg.Devices)),
		failed:     make([]bool, len(cfg.ServiceRate)),
		arriveGen:  make([]uint64, len(cfg.Devices)),
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
	}
	s.result.EdgeBusyMs = make([]float64, len(cfg.ServiceRate))
	s.result.PeakQueue = make([]int, len(cfg.ServiceRate))
	if cfg.Discipline == DisciplinePS {
		s.ps = make([]*psServer, len(cfg.ServiceRate))
		for j := range s.ps {
			s.ps[j] = &psServer{rate: cfg.ServiceRate[j]}
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
	rate  float64
	jobs  []psJob // in admission order
	lastT float64
	// wakeGen is the generation of the pending completion wake-up; a
	// reschedule bumps it, so the wake-up armed before is skipped.
	wakeGen uint64
}

// advance applies elapsed virtual time to all jobs.
func (p *psServer) advance(now float64) {
	if k := len(p.jobs); k > 0 && now > p.lastT {
		done := p.rate * (now - p.lastT) / 1000 / float64(k)
		for i := range p.jobs {
			p.jobs[i].remaining -= done
		}
	}
	p.lastT = now
}

// nextCompletion returns the absolute time at which the earliest
// finishing job completes, and false when idle.
func (p *psServer) nextCompletion(now float64) (float64, bool) {
	best := math.Inf(1)
	for i := range p.jobs {
		if r := p.jobs[i].remaining; r < best {
			best = r
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	if best < 0 {
		best = 0
	}
	return now + best*float64(len(p.jobs))*1000/p.rate, true
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
	return s.at(tMs, func() {
		s.uplink = uplink
		s.downlink = downlink
	})
}

// ScheduleReconfigureWithPause swaps the live assignment at virtual time
// tMs. Requests already in flight complete under their old edge; new
// arrivals use the new mapping. With a pause above 0, sending devices
// whose placement changed pause for pauseMs (their state is migrating):
// their arrival streams stop and resume when the migration completes. A
// pause of 0 only swaps the assignment. Must be called before Run.
func (s *Simulator) ScheduleReconfigureWithPause(tMs float64, assignment []int, pauseMs float64) error {
	if len(assignment) != len(s.cfg.Devices) {
		return fmt.Errorf("cluster: reconfigure assignment length %d, want %d", len(assignment), len(s.cfg.Devices))
	}
	for i, j := range assignment {
		if j < 0 || j >= len(s.cfg.ServiceRate) {
			return fmt.Errorf("cluster: reconfigure device %d to invalid edge %d", i, j)
		}
	}
	if pauseMs < 0 || math.IsNaN(pauseMs) || math.IsInf(pauseMs, 1) {
		return fmt.Errorf("cluster: migration pause %v must be finite and >= 0", pauseMs)
	}
	of := make([]int, len(assignment))
	copy(of, assignment)
	return s.at(tMs, func() {
		for i := range of {
			if pauseMs == 0 || s.assignment[i] == of[i] || s.migrating[i] {
				continue
			}
			s.setMigrating(i, true)
			// A finite, positive pause from now is never before the
			// clock, so this at cannot fail.
			_ = s.at(s.engine.Now()+pauseMs, func() { s.setMigrating(i, false) })
		}
		copy(s.assignment, of)
	})
}

// ScheduleEdgeFailure marks edge j failed at tMs: all requests targeting
// it afterwards are dropped until ScheduleEdgeRecovery. Must be called
// before Run.
func (s *Simulator) ScheduleEdgeFailure(tMs float64, j int) error {
	if j < 0 || j >= len(s.cfg.ServiceRate) {
		return fmt.Errorf("cluster: failure on invalid edge %d", j)
	}
	return s.at(tMs, func() { s.failed[j] = true })
}

// ScheduleEdgeRecovery clears a failure at tMs. Must be called before Run.
func (s *Simulator) ScheduleEdgeRecovery(tMs float64, j int) error {
	if j < 0 || j >= len(s.cfg.ServiceRate) {
		return fmt.Errorf("cluster: recovery on invalid edge %d", j)
	}
	return s.at(tMs, func() { s.failed[j] = false })
}

// eventKind says what a queued simulator event does.
type eventKind uint8

const (
	evArrive  eventKind = iota // device idx sends, unless gen is stale
	evServe                    // request slot idx reaches its edge
	evFinish                   // request slot idx ends FIFO service
	evPSWake                   // edge idx's PS jobs may drain, unless gen is stale
	evControl                  // control[idx] runs
)

// event is the payload of one queued simulator event.
type event struct {
	gen  uint64 // generation stamp of an arrival or PS wake-up
	idx  int32  // device, request slot, edge or control index, by kind
	kind eventKind
}

// handle dispatches one popped event.
func (s *Simulator) handle(ev event) {
	switch ev.kind {
	case evArrive:
		s.arrive(int(ev.idx), ev.gen)
	case evServe:
		s.serve(ev.idx)
	case evFinish:
		s.exit(s.release(ev.idx), true)
	case evPSWake:
		s.completePS(int(ev.idx), ev.gen)
	case evControl:
		s.control[ev.idx]()
	}
}

// at schedules control closure fn at virtual time tMs. A NaN time, or
// one before the clock (any negative time), is an error, not the
// engine's panic.
func (s *Simulator) at(tMs float64, fn func()) error {
	if now := s.engine.Now(); math.IsNaN(tMs) || tMs < now {
		return fmt.Errorf("cluster: schedule time %v ms is NaN or before the clock at %v ms", tMs, now)
	}
	s.engine.Schedule(tMs, event{kind: evControl, idx: int32(len(s.control))})
	s.control = append(s.control, fn)
	return nil
}

// hold stores r in a vacant slab slot and returns the slot.
func (s *Simulator) hold(r request) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.reqs[slot] = r
		return slot
	}
	s.reqs = append(s.reqs, r)
	return int32(len(s.reqs) - 1)
}

// release frees slot and returns the request it held.
func (s *Simulator) release(slot int32) request {
	s.free = append(s.free, slot)
	return s.reqs[slot]
}

// scheduleNextArrival arms device i's next arrival, stamped with its
// current arrival generation.
func (s *Simulator) scheduleNextArrival(i int) {
	s.engine.After(s.arrival[i].NextGapMs(), event{kind: evArrive, idx: int32(i), gen: s.arriveGen[i]})
}

// setMigrating sets device i's migration state, making its pending
// arrival stale when a migration starts and starting its arrival stream
// again when the migration ends.
func (s *Simulator) setMigrating(i int, migrating bool) {
	s.migrating[i] = migrating
	if migrating {
		s.arriveGen[i]++
	} else {
		s.scheduleNextArrival(i)
	}
}

// arrive handles one request arrival from device i and schedules the next.
// An arrival stamped with an older generation was armed before the device
// stopped sending, and is skipped.
func (s *Simulator) arrive(i int, gen uint64) {
	if gen != s.arriveGen[i] {
		return
	}
	now := s.engine.Now()
	j := s.assignment[i]
	s.met.sent.Add(1)
	if up := s.uplink[i][j]; !s.failed[j] && !math.IsInf(up, 1) {
		r := request{dev: i, edge: j, sentAt: now, edgeAt: now + s.jitter(up), trace: s.sampleTrace()}
		s.engine.Schedule(r.edgeAt, event{kind: evServe, idx: s.hold(r)})
	} else {
		// Dropped at the device (failed or unreachable edge): never
		// uplinked, so never traced.
		s.exit(request{dev: i, edge: j, sentAt: now, edgeAt: now}, false)
	}
	s.scheduleNextArrival(i)
}

// serve admits the request in slot at its edge under the configured
// discipline, or drops it there when the edge has failed or its queue is
// full.
func (s *Simulator) serve(slot int32) {
	r := s.reqs[slot]
	j := r.edge
	if s.failed[j] || (s.cfg.MaxQueue > 0 && s.inFlight[j] >= s.cfg.MaxQueue) {
		s.exit(s.release(slot), false)
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
		s.release(slot)
		p := s.ps[j]
		p.advance(r.edgeAt)
		p.jobs = append(p.jobs, psJob{request: r, remaining: s.cfg.Devices[r.dev].ComputeUnits})
		s.reschedulePS(j)
		return
	}
	if s.busyUntil[j] > r.start {
		r.start = s.busyUntil[j]
	}
	r.serviceMs = demandMs
	r.finish = r.start + demandMs
	s.busyUntil[j] = r.finish
	s.reqs[slot] = r
	s.engine.Schedule(r.finish, event{kind: evFinish, idx: slot})
}

// exit is the one place a request leaves the simulator, and the only code
// that books it: a drop when served is false (at r.edgeAt), otherwise the
// completion of its service at r.finish, which first frees its place at
// the edge and draws the downlink delay. Result counts requests sent after
// warmup. With any plane on, the exit then goes to the observer, which
// books it in every plane (see observe).
func (s *Simulator) exit(r request, served bool) {
	measured := r.sentAt >= s.cfg.WarmupMs
	outcome, down := OutcomeDropped, 0.0
	if !served {
		if measured {
			s.result.Dropped++
		}
	} else {
		j := r.edge
		s.inFlight[j]--
		s.met.queueDepth[j].Set(float64(s.inFlight[j]))
		down = s.downlinkDelay(r.dev, j)
		end := r.finish + down
		latency := end - r.sentAt
		outcome = OutcomeOK
		if dl := s.cfg.Devices[r.dev].DeadlineMs; dl > 0 && latency > dl {
			outcome = OutcomeMissed
		}
		if measured {
			s.result.Completed++
			s.result.Latency.Add(latency)
			if outcome == OutcomeMissed {
				s.result.DeadlineMisses++
			}
		}
	}
	if s.observer != nil {
		s.observer.push(exitRecord{r: r, down: down, outcome: outcome})
	}
}

// exitRecord is one request exit as the event loop booked it: the
// request, the downlink delay drawn for a completion, and the outcome.
type exitRecord struct {
	r       request
	down    float64
	outcome Outcome
}

// observe books one request exit in the observability planes: the
// metrics handles and the SLO tracker see every request, and sampled
// requests emit their trace, the one per-request record. It recomputes
// the end and the latency exactly as exit did, so every plane sees the
// values Result holds. It runs on the observer goroutine and reads only
// what New set.
func (s *Simulator) observe(x *exitRecord) {
	r := &x.r
	end := r.edgeAt
	if x.outcome == OutcomeDropped {
		s.met.dropped.Add(1)
		s.cfg.SLO.ObserveDrop(r.edgeAt)
	} else {
		end = r.finish + x.down
		latency := end - r.sentAt
		uplink, queue := r.edgeAt-r.sentAt, r.start-r.edgeAt
		s.met.observeDone(x.outcome, latency, uplink, queue, r.serviceMs, x.down)
		// SLO windows are keyed by service completion, not by the
		// response's arrival at the device.
		s.cfg.SLO.ObserveRequest(r.finish, uplink, queue, r.serviceMs, x.down, latency, x.outcome == OutcomeMissed)
	}
	s.emitTrace(*r, end, x.outcome)
}

// observerBatch is the number of exits the event loop hands the observer
// at once.
const observerBatch = 512

// observer is the one goroutine of an observed Run. The event loop
// appends each exit to a batch; a full batch goes to the goroutine, which
// books its exits in order and hands the emptied batch back. Two batches
// circulate, so the loop fills one while the goroutine drains the other,
// and it waits only when it fills its batch before the goroutine has
// drained the other.
type observer struct {
	batch []exitRecord      // the batch the event loop is filling
	full  chan []exitRecord // filled batches, in exit order
	free  chan []exitRecord // drained batches, back to the loop
	done  chan struct{}     // closed once every batch sent is booked
}

// startObserver starts the goroutine that calls book for every exit
// pushed, in push order.
func startObserver(book func(*exitRecord)) *observer {
	// Each channel can hold both batches, so neither side ever blocks on
	// a send: the loop waits only for a free batch, the goroutine only
	// for a full one.
	o := &observer{
		batch: make([]exitRecord, 0, observerBatch),
		full:  make(chan []exitRecord, 2),
		free:  make(chan []exitRecord, 2),
		done:  make(chan struct{}),
	}
	o.free <- make([]exitRecord, 0, observerBatch)
	go func() {
		defer close(o.done)
		for b := range o.full {
			for i := range b {
				book(&b[i])
			}
			o.free <- b[:0]
		}
	}()
	return o
}

// push appends one exit to the loop's batch, handing the batch over once
// it is full.
func (o *observer) push(x exitRecord) {
	o.batch = append(o.batch, x)
	if len(o.batch) == observerBatch {
		o.full <- o.batch
		o.batch = <-o.free
	}
}

// stop hands over the last, partial batch and returns once every exit
// pushed has been booked and the goroutine has ended.
func (o *observer) stop() {
	if len(o.batch) > 0 {
		o.full <- o.batch
	}
	close(o.full)
	<-o.done
}

// reschedulePS makes edge j's pending completion wake-up stale and arms a
// new one for its earliest finishing job.
func (s *Simulator) reschedulePS(j int) {
	p := s.ps[j]
	p.wakeGen++
	if at, ok := p.nextCompletion(s.engine.Now()); ok {
		s.engine.Schedule(at, event{kind: evPSWake, idx: int32(j), gen: p.wakeGen})
	}
}

// completePS finishes every job at edge j whose remaining work has
// drained, unless the wake-up's generation gen is stale. Jobs drain in
// admission order, so metric and span streams are deterministic even when
// several jobs tie.
func (s *Simulator) completePS(j int, gen uint64) {
	p := s.ps[j]
	if gen != p.wakeGen {
		return
	}
	now := s.engine.Now()
	p.advance(now)
	const drained = 1e-9
	kept := p.jobs[:0]
	for _, job := range p.jobs {
		if job.remaining <= drained {
			// Under PS a job is in service from arrival, so its
			// queue-wait phase is empty and service absorbs the sharing
			// slowdown.
			job.finish, job.serviceMs = now, now-job.start
			s.exit(job.request, true)
			continue
		}
		kept = append(kept, job)
	}
	p.jobs = kept
	s.reschedulePS(j)
}

// runEvents pops events until durationMs. With any plane on, it starts
// the observer first and joins it before it returns on every path, a
// panic in a handler included; with every plane off it starts no
// goroutine.
func (s *Simulator) runEvents(durationMs float64) {
	if s.cfg.Metrics != nil || s.cfg.SLO != nil || s.cfg.Spans != nil {
		s.observer = startObserver(s.observe)
		defer s.observer.stop()
	}
	s.engine.Run(durationMs, s.handle)
}

// Run executes the simulation for durationMs of virtual time and returns
// the collected result. Run may be called only once.
func (s *Simulator) Run(durationMs float64) (*Result, error) {
	if s.ran {
		return nil, errors.New("cluster: Run called twice")
	}
	if math.IsNaN(durationMs) || math.IsInf(durationMs, 1) || durationMs <= s.cfg.WarmupMs {
		return nil, fmt.Errorf("cluster: duration %v must be finite and exceed warmup %v", durationMs, s.cfg.WarmupMs)
	}
	s.ran = true
	for i := range s.cfg.Devices {
		s.scheduleNextArrival(i)
	}
	s.runEvents(durationMs)
	s.cfg.SLO.Finish(durationMs)
	s.result.DurationMs = durationMs - s.cfg.WarmupMs
	return &s.result, nil
}
