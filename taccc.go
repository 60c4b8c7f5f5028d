package taccc

import (
	"io"

	"taccc/internal/assign"
	"taccc/internal/cluster"
	"taccc/internal/experiment"
	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/obs/slo"
	"taccc/internal/online"
	"taccc/internal/topology"
	"taccc/internal/trace"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// The facade re-exports the library's stable surface: problem modeling
// (Instance, Assignment), the topology substrate, workload generation, the
// assignment algorithms, the cluster simulator and the experiment harness.
// Aliases keep a single authoritative implementation in internal/ while
// giving downstream users one import.

// Problem modeling (internal/gap).
type (
	// Instance is a Generalized Assignment Problem instance: delays,
	// per-device loads, per-edge capacities.
	Instance = gap.Instance
	// Assignment maps each device index to its serving edge index.
	Assignment = gap.Assignment
	// Violation describes one overloaded edge.
	Violation = gap.Violation
	// BnBResult is the exact solver's outcome.
	BnBResult = gap.BnBResult
	// SyntheticKind selects a synthetic instance family.
	SyntheticKind = gap.SyntheticKind
)

// Synthetic instance families (classic OR benchmark classes).
const (
	SyntheticUniform    = gap.SyntheticUniform
	SyntheticCorrelated = gap.SyntheticCorrelated
)

// ErrInfeasible is returned when no overload-free assignment exists (exact
// solvers) or none was found (heuristics).
var ErrInfeasible = gap.ErrInfeasible

// NewInstance validates and wraps delay, weight and capacity matrices.
func NewInstance(costMs, weight [][]float64, capacity []float64) (*Instance, error) {
	return gap.NewInstance(costMs, weight, capacity)
}

// ReadInstance parses an instance JSON written by Instance.WriteJSON.
func ReadInstance(r io.Reader) (*Instance, error) { return gap.ReadJSON(r) }

// SyntheticInstance generates a random benchmark instance.
func SyntheticInstance(kind SyntheticKind, n, m int, rho float64, seed int64) (*Instance, error) {
	return gap.Synthetic(kind, n, m, rho, seed)
}

// BranchAndBound solves an instance exactly (small instances only).
func BranchAndBound(in *Instance) (*BnBResult, error) { return gap.BranchAndBound(in) }

// LowerBound returns the best available lower bound on the optimal total
// delay (max of capacity-relaxed and Lagrangian bounds).
func LowerBound(in *Instance) float64 { return gap.LowerBound(in) }

// Topology substrate (internal/topology).
type (
	// Graph is the network topology.
	Graph = topology.Graph
	// Node and NodeID identify topology vertices.
	Node   = topology.Node
	NodeID = topology.NodeID
	// NodeKind classifies nodes (IoT, gateway, router, edge, cloud).
	NodeKind = topology.NodeKind
	// Link is a network link with latency and bandwidth.
	Link = topology.Link
	// TopologyConfig sizes generated deployments.
	TopologyConfig = topology.Config
	// LinkParams controls generated link latencies and bandwidths.
	LinkParams = topology.LinkParams
	// Family names a topology generator.
	Family = topology.Family
	// Placement selects IoT placement (uniform or hotspot).
	Placement = topology.Placement
	// DelayMatrix is the IoT-by-edge shortest-path delay matrix.
	DelayMatrix = topology.DelayMatrix
	// LinkCost maps a link to a traversal cost.
	LinkCost = topology.LinkCost
)

// Node kinds.
const (
	KindIoT     = topology.KindIoT
	KindGateway = topology.KindGateway
	KindRouter  = topology.KindRouter
	KindEdge    = topology.KindEdge
	KindCloud   = topology.KindCloud
)

// IoT placement strategies.
const (
	PlaceUniform = topology.PlaceUniform
	PlaceHotspot = topology.PlaceHotspot
)

// Topology families.
const (
	FamilyHierarchical = topology.FamilyHierarchical
	FamilyGeometric    = topology.FamilyGeometric
	FamilyWaxman       = topology.FamilyWaxman
	FamilyBA           = topology.FamilyBA
	FamilyGrid         = topology.FamilyGrid
	FamilyFatTree      = topology.FamilyFatTree
	FamilyStar         = topology.FamilyStar
	FamilyRing         = topology.FamilyRing
)

// TopologyMetrics summarizes a graph's shape (see tacgen -format stats).
type TopologyMetrics = topology.Metrics

// ResilienceReport quantifies exposure to single-node infrastructure
// failures (see Graph.Resilience and Graph.CutVertices).
type ResilienceReport = topology.ResilienceReport

// ComputeTopologyMetrics walks the graph and derives degree, diameter and
// IoT-to-edge proximity statistics.
func ComputeTopologyMetrics(g *Graph) TopologyMetrics { return topology.ComputeMetrics(g) }

// GenerateTopology builds a topology of the named family.
func GenerateTopology(family Family, cfg TopologyConfig, place Placement) (*Graph, error) {
	return topology.Generate(family, cfg, place)
}

// Link-level congestion (internal/topology; see
// Graph.EvaluateCongestionMultipath).
type (
	// Flow is one device's steady-state traffic demand.
	Flow = topology.Flow
	// LinkLoad reports a link's offered load and utilization.
	LinkLoad = topology.LinkLoad
	// CongestionResult holds effective delays and link utilizations.
	CongestionResult = topology.CongestionResult
)

// NewDelayMatrix derives IoT-to-edge delays from a topology under a cost
// model, fanning Dijkstra sources out across all cores. The result is
// identical to a sequential computation.
func NewDelayMatrix(g *Graph, cost LinkCost) *DelayMatrix {
	return topology.NewDelayMatrix(g, cost)
}

// NewDelayMatrixWorkers is NewDelayMatrix with an explicit worker count
// (<= 0 means all cores, 1 is fully sequential).
func NewDelayMatrixWorkers(g *Graph, cost LinkCost, workers int) *DelayMatrix {
	return topology.NewDelayMatrixWorkers(g, cost, workers)
}

// LatencyCost charges each link its configured latency.
func LatencyCost(l Link) float64 { return topology.LatencyCost(l) }

// PayloadCost charges latency plus transmission time for a payload size.
func PayloadCost(payloadKB float64) LinkCost { return topology.PayloadCost(payloadKB) }

// Workload generation (internal/workload).
type (
	// Device is one IoT device's demand profile.
	Device = workload.Device
	// DeviceClass is an archetype mixed into a Profile.
	DeviceClass = workload.Class
	// Profile configures a generated device population.
	Profile = workload.Profile
)

// Mobility (internal/workload) and incremental topology construction
// (internal/topology) for dynamic scenarios.
type (
	// RandomWaypoint is the classic mobility model for one device.
	RandomWaypoint = workload.RandomWaypoint
	// Position is a planar coordinate in meters.
	Position = workload.Position
)

// NewRandomWaypoint creates a deterministic walker over a square area.
func NewRandomWaypoint(areaMeters, minSpeedMps, maxSpeedMps, pauseMs float64, seed int64) (*RandomWaypoint, error) {
	return workload.NewRandomWaypoint(areaMeters, minSpeedMps, maxSpeedMps, pauseMs, xrand.New(seed))
}

// HierarchicalInfra builds a hierarchical topology without IoT devices;
// pair with AttachIoTAt to snapshot mobile device positions epoch by
// epoch.
func HierarchicalInfra(cfg TopologyConfig) (*Graph, error) {
	return topology.HierarchicalInfra(cfg)
}

// AttachIoTAt adds IoT nodes at the given coordinates, each wired to its
// nearest gateway.
func AttachIoTAt(g *Graph, xs, ys []float64, links LinkParams, seed int64) error {
	return topology.AttachIoTAt(g, xs, ys, links, seed)
}

// SplitSeed derives a child seed from (seed, label); the same pair always
// yields the same child, so derived randomness stays reproducible.
func SplitSeed(seed int64, label string) int64 { return xrand.SplitSeed(seed, label) }

// DefaultProfile models a mixed sensing deployment (sensors, trackers,
// cameras).
func DefaultProfile(seed int64) Profile { return workload.DefaultProfile(seed) }

// GenerateDevices draws a device population from a profile.
func GenerateDevices(n int, p Profile) ([]Device, error) { return workload.Generate(n, p) }

// TotalLoad sums the steady-state load of a population.
func TotalLoad(devices []Device) float64 { return workload.TotalLoad(devices) }

// InstanceFromTopology binds a delay matrix, device population and
// capacities into a GAP instance. A matrix built by NewDelayMatrix is
// not copied: its rows become the instance's read-only cost rows, so do
// not write to them after the call.
func InstanceFromTopology(dm *DelayMatrix, devices []Device, capacity []float64) (*Instance, error) {
	return gap.FromTopology(dm, devices, capacity)
}

// Assignment algorithms (internal/assign).
type (
	// Assigner is the algorithm interface.
	Assigner = assign.Assigner
	// AssignerFactory builds an assigner from a seed.
	AssignerFactory = assign.Factory
	// AlgorithmRegistry is the name-indexed algorithm table.
	AlgorithmRegistry = assign.Registry
	// QLearningAssigner is the paper's primary heuristic (exposes
	// Params and the convergence Trace).
	QLearningAssigner = assign.QLearning
	// RLParams tunes the RL assigners.
	RLParams = assign.RLParams
)

// NewAlgorithmRegistry returns a registry with every built-in algorithm.
func NewAlgorithmRegistry() *AlgorithmRegistry { return assign.NewRegistry() }

// NewQLearning returns the paper's Q-learning assigner.
func NewQLearning(seed int64) *QLearningAssigner { return assign.NewQLearning(seed) }

// NewGreedy returns the min-delay greedy baseline.
func NewGreedy() Assigner { return assign.NewGreedy() }

// WithDeadlines masks every cell whose delay exceeds the device's budget,
// so any assigner produces deadline-respecting configurations.
func WithDeadlines(in *Instance, budgetMs []float64) (*Instance, error) {
	return gap.WithDeadlines(in, budgetMs)
}

// DeadlineViolations counts devices whose assigned delay exceeds their
// budget.
func DeadlineViolations(in *Instance, a *Assignment, budgetMs []float64) (int, error) {
	return gap.DeadlineViolations(in, a, budgetMs)
}

// Cluster simulation (internal/cluster).
type (
	// SimConfig configures an edge-cluster simulation run.
	SimConfig = cluster.Config
	// Simulator replays request streams against an assignment.
	Simulator = cluster.Simulator
	// SimResult aggregates a run's latencies, misses and utilization.
	SimResult = cluster.Result
	// Discipline selects an edge server's queueing discipline.
	Discipline = cluster.Discipline
)

// Queueing disciplines.
const (
	// DisciplineFIFO serves requests one at a time in arrival order.
	DisciplineFIFO = cluster.DisciplineFIFO
	// DisciplinePS shares each server equally among queued requests.
	DisciplinePS = cluster.DisciplinePS
)

// NewSimulator validates a config and builds a simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return cluster.New(cfg) }

// Request tracing (internal/cluster + internal/trace).
type (
	// RequestRecord is one traced request's lifecycle, rebuilt from its
	// request span.
	RequestRecord = trace.RequestRecord
	// Outcome classifies how a request ended (ok / missed / dropped).
	Outcome = cluster.Outcome
	// TraceSummary aggregates a trace.
	TraceSummary = trace.Summary
	// TraceWindow is one bucket of a latency time series.
	TraceWindow = trace.WindowPoint
)

// Request outcomes.
const (
	OutcomeOK      = cluster.OutcomeOK
	OutcomeMissed  = cluster.OutcomeMissed
	OutcomeDropped = cluster.OutcomeDropped
)

// TraceFromSpanEvents reconstructs per-request records from a structured
// event stream's root "request" spans, such as a run archive's
// events.jsonl.
func TraceFromSpanEvents(events []ObsEvent) ([]RequestRecord, error) {
	return trace.FromSpanEvents(events)
}

// SummarizeTrace aggregates records into counts and a latency sample.
func SummarizeTrace(records []RequestRecord) *TraceSummary { return trace.Summarize(records) }

// TraceTimeSeries buckets a trace into fixed windows for latency-over-time
// views.
func TraceTimeSeries(records []RequestRecord, windowMs float64) ([]TraceWindow, error) {
	return trace.TimeSeries(records, windowMs)
}

// Online reconfiguration (internal/online).
type (
	// OnlineController maintains a live configuration as devices join,
	// leave and move, with bounded-migration rebalancing.
	OnlineController = online.Controller
	// OnlinePolicy decides per-epoch maintenance on a controller.
	OnlinePolicy = online.Policy
	// PolicyJoinOnly never migrates (the configure-once strawman).
	PolicyJoinOnly = online.JoinOnly
	// PolicyThreshold migrates devices whose gain exceeds a bar.
	PolicyThreshold = online.Threshold
	// PolicyRebalance periodically re-solves under a migration budget.
	PolicyRebalance = online.Rebalance
)

// Online controller sentinel errors.
var (
	// ErrNoCapacity means no edge can host the joining device.
	ErrNoCapacity = online.ErrNoCapacity
	// ErrUnknownDevice means the device ID is not attached.
	ErrUnknownDevice = online.ErrUnknownDevice
)

// NewOnlineController builds a controller over the given edge capacities.
func NewOnlineController(capacity []float64) (*OnlineController, error) {
	return online.NewController(capacity)
}

// Experiments (internal/experiment).
type (
	// Scenario describes an evaluated deployment.
	Scenario = experiment.Scenario
	// BuiltScenario is a materialized scenario.
	BuiltScenario = experiment.Built
	// ExperimentOptions tunes experiment execution.
	ExperimentOptions = experiment.Options
	// ExperimentSpec is a runnable experiment.
	ExperimentSpec = experiment.Spec
	// ResultTable is a rendered experiment result.
	ResultTable = experiment.Table
	// AlgoStat aggregates one algorithm's behaviour over replications.
	AlgoStat = experiment.AlgoStat
	// ExperimentResult is one spec's outcome from RunExperiments.
	ExperimentResult = experiment.Result
)

// Experiments returns every table/figure experiment in report order.
func Experiments() []ExperimentSpec { return experiment.All() }

// ExperimentByID finds an experiment by its DESIGN.md identifier.
func ExperimentByID(id string) (ExperimentSpec, error) { return experiment.ByID(id) }

// RunExperiments executes specs with up to opts.Workers specs in flight
// (<= 0 means all cores, 1 is sequential), returning per-spec tables,
// timings and failures in spec order. Results are identical at any
// parallelism.
func RunExperiments(specs []ExperimentSpec, opts ExperimentOptions) []ExperimentResult {
	return experiment.RunAll(specs, opts)
}

// CompareAlgorithmsWorkers runs the named algorithms over replications of
// a scenario and aggregates delay, runtime and feasibility on up to
// workers goroutines (<= 0 means all cores, 1 is sequential). Results are
// bit-identical at any worker count.
func CompareAlgorithmsWorkers(sc Scenario, algos []string, reps, workers int) ([]AlgoStat, error) {
	return experiment.CompareAlgorithmsWorkers(sc, algos, reps, workers)
}

// ServiceRates converts planner capacities into simulator service rates
// with queueing headroom (see internal/experiment.ServiceRates).
func ServiceRates(capacity []float64, headroom float64) []float64 {
	return experiment.ServiceRates(capacity, headroom)
}

// Bench suite (internal/experiment): the fixed performance-tracking
// scenarios behind `tacbench -json` and the tacreport perf gate.
type (
	// BenchResults is the on-disk shape of BENCH_results.json.
	BenchResults = experiment.BenchResults
	// BenchScenario is one bench scenario's per-algorithm statistics.
	BenchScenario = experiment.BenchScenario
	// BenchAlgo is one algorithm's aggregated bench statistics.
	BenchAlgo = experiment.BenchAlgo
)

// RunBenchSuite executes the fixed bench scenarios with the standard
// algorithm set. Objective statistics are reproducible from opts.Seed at
// any opts.Workers; runtime statistics reflect this machine. Tool and
// Version are left for the caller to stamp.
func RunBenchSuite(opts ExperimentOptions) (*BenchResults, error) {
	return experiment.RunBench(opts)
}

// Observability (internal/obs). Every hook is optional and nil-safe:
// with no sink or registry attached the instrumented code paths are
// no-ops and results are bit-identical.
type (
	// ObsEvent is one structured observability event.
	ObsEvent = obs.Event
	// ObsSink consumes structured events (see NewJSONLSink).
	ObsSink = obs.Sink
	// JSONLSink streams events as JSON lines.
	JSONLSink = obs.JSONL
	// MetricsRegistry is a concurrency-safe named-metric table.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time registry export (JSON-friendly).
	MetricsSnapshot = obs.Snapshot
	// IterEvent is one solver iteration's progress (algo, iter, best
	// cost, feasibility).
	IterEvent = obs.IterEvent
	// ProgressSink consumes solver iteration events.
	ProgressSink = obs.ProgressSink
	// Span is one timed phase of a traced request (see SimConfig.Spans).
	Span = obs.Span
	// TraceID groups the spans of one traced request.
	TraceID = obs.TraceID
	// SpanID identifies a span within its trace.
	SpanID = obs.SpanID
	// HistogramSnapshot is a point-in-time histogram export with bucket
	// counts and quantile estimation.
	HistogramSnapshot = obs.HistogramSnapshot
	// Clock is the sanctioned monotonic wall-clock reader — the single
	// doorway through which wall time may enter instrumentation.
	Clock = obs.Clock
	// Tracer mints pipeline-trace phases over a span sink.
	Tracer = obs.Tracer
	// Phase is one live pipeline-trace phase; nil phases are inert, so
	// tracing hooks can be threaded through unconditionally.
	Phase = obs.Phase
	// SpanCollector gathers emitted spans in memory (for export or
	// phase-attribution reporting).
	SpanCollector = obs.SpanCollector
)

// NewMetricsRegistry returns an empty metrics registry; set it as
// SimConfig.Metrics for live simulator counters, or feed it solver
// progress via MetricsProgress.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJSONLSink streams events to w as one JSON object per line.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONL(w) }

// EventProgress adapts an event sink into a solver progress sink (one
// "iter" event per solver iteration).
func EventProgress(s ObsSink) ProgressSink { return obs.EventProgress(s) }

// MetricsProgress exposes solver progress as registry metrics
// (solver.<algo>.iters counters, solver.<algo>.best_cost_ms gauges).
func MetricsProgress(r *MetricsRegistry) ProgressSink { return obs.MetricsProgress(r) }

// MultiProgress fans iteration events out to several sinks.
func MultiProgress(sinks ...ProgressSink) ProgressSink { return obs.MultiProgress(sinks...) }

// WithProgress attaches a progress sink to an assigner if it supports
// iteration reporting (Q-learning episodes, tabu/LNS iterations); reports
// whether it does. Attaching a sink never
// changes an assigner's result.
func WithProgress(a Assigner, sink ProgressSink) bool { return assign.WithProgress(a, sink) }

// WithPhases attaches a pipeline-trace parent phase to an assigner if it
// reports solver phases (construction/improvement/repair/polish);
// reports whether it does. Attaching never changes an assigner's result,
// and a nil parent keeps the solver on its zero-overhead path.
func WithPhases(a Assigner, parent *Phase) bool { return assign.WithPhases(a, parent) }

// WallClock returns the process-wide monotonic wall clock — the only
// sanctioned wall-clock source for instrumentation (see internal/obs).
func WallClock() Clock { return obs.WallClock() }

// NewTracer builds a pipeline tracer emitting finished phase spans into
// sink; a nil sink returns a nil (inert) tracer.
func NewTracer(sink ObsSink, clock Clock) *Tracer { return obs.NewTracer(sink, clock) }

// Streaming SLO plane (internal/obs/slo): rolling-window latency
// quantiles, error budgets, and alert events driven purely by sim time.
// Set SimConfig.SLO to evaluate objectives during a cluster run; the
// tracker is nil-safe, so an unconfigured plane costs nothing and
// results stay bit-identical.
type (
	// SLOTracker aggregates fixed-width rolling windows and evaluates
	// objectives as the simulation advances (see NewSLOTracker).
	SLOTracker = slo.Tracker
	// SLOConfig configures a tracker: window width, objectives, event
	// sink, metrics registry.
	SLOConfig = slo.Config
	// SLOObjective is one target: a windowed statistic over a delay
	// series, a threshold, and a compliance target.
	SLOObjective = slo.Objective
	// SLOSeries names a delay series (e2e, uplink, queue, service,
	// downlink).
	SLOSeries = slo.Series
	// SLOStat is the windowed statistic an objective evaluates
	// (quantile, mean, or miss rate).
	SLOStat = slo.Stat
	// SLOObjectiveResult is an objective's end-of-run verdict: windows,
	// violations, compliance, remaining error budget, alert count.
	SLOObjectiveResult = slo.ObjectiveResult
)

// NewSLOTracker validates cfg and returns a windowed SLO tracker; set
// it as SimConfig.SLO. A nil tracker is inert.
func NewSLOTracker(cfg SLOConfig) (*SLOTracker, error) { return slo.New(cfg) }

// ParseSLOObjectives parses a comma-separated objective spec such as
// "p95<=20@99,uplink.mean<=5,miss<=0.01" (the tacsim/tacsolve -slo
// flag syntax).
func ParseSLOObjectives(spec string) ([]SLOObjective, error) { return slo.ParseObjectives(spec) }

// WorkloadProfiles returns the named device-profile presets (default,
// smartcity, factory, wearables), each seeded with seed.
func WorkloadProfiles(seed int64) map[string]Profile { return workload.Profiles(seed) }

// WriteDevicesJSON serializes a device population.
func WriteDevicesJSON(w io.Writer, devices []Device) error {
	return workload.WriteDevicesJSON(w, devices)
}
