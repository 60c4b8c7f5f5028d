package experiment

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/topology"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// Scenario describes one evaluated deployment: a topology family and size,
// a workload population drawn from workload.DefaultProfile and a capacity
// tightness. Building a scenario yields the GAP instance every algorithm
// solves plus the artifacts needed for end-to-end simulation.
type Scenario struct {
	// Family and Place select the topology generator; zero values mean
	// hierarchical with uniform placement.
	Family topology.Family
	Place  topology.Placement
	// NumIoT and NumEdge size the deployment, with one core router per
	// edge; NumGateways defaults to 2×NumEdge.
	NumIoT      int
	NumEdge     int
	NumGateways int
	// Rho is the capacity tightness in (0, 1]; default 0.7.
	Rho float64
	// PayloadKB, when > 0, makes delays payload-aware (transmission time
	// at link bandwidth added to propagation); it must be finite and
	// >= 0.
	PayloadKB float64
	// Links overrides generated link latencies/bandwidths; the zero
	// value uses topology.DefaultLinkParams.
	Links topology.LinkParams
	// CapacitySkew in [0, 1) makes edge capacities heterogeneous:
	// alternate edges get per*(1+skew) and per*(1-skew) capacity while
	// the total stays fixed. 0 means uniform.
	CapacitySkew float64
	// Workers bounds the parallelism of delay-matrix construction
	// (<= 0 means all cores, 1 is sequential). The built scenario is
	// identical at any setting.
	Workers int
	// Seed drives every random choice.
	Seed int64
	// Trace, when non-nil, is the pipeline-trace parent phase: Build
	// emits wall-clock child spans for topology generation, delay-matrix
	// construction (with one "shard" span per worker), workload
	// generation and instance assembly. Strictly observational — the
	// built scenario is bit-identical with or without it.
	Trace *obs.Phase
}

func (s Scenario) withDefaults() Scenario {
	if s.Family == "" {
		s.Family = topology.FamilyHierarchical
	}
	if s.Place == 0 {
		s.Place = topology.PlaceUniform
	}
	if s.NumGateways == 0 {
		s.NumGateways = 2 * s.NumEdge
	}
	if s.Rho == 0 {
		s.Rho = 0.7
	}
	return s
}

// Capacities sizes uniform per-edge capacities at tightness rho, raised if
// necessary so the heaviest single device fits on an edge (a deployment
// whose largest workload exceeds every server is malformed, not "tight").
func Capacities(m int, devices []workload.Device, rho float64) ([]float64, error) {
	capacity, err := gap.UniformCapacities(m, workload.TotalLoad(devices), rho)
	if err != nil {
		return nil, err
	}
	maxLoad := 0.0
	for _, d := range devices {
		if l := d.Load(); l > maxLoad {
			maxLoad = l
		}
	}
	floor := maxLoad * 1.05
	for j := range capacity {
		if capacity[j] < floor {
			capacity[j] = floor
		}
	}
	return capacity, nil
}

// ServiceRates converts assignment capacities into simulator service
// rates: the planner commits only `headroom` (in (0, 1]) of each server's
// physical rate, so a fully packed edge still runs its queue at utilization
// ~headroom instead of 1.0. Panics on out-of-range headroom.
func ServiceRates(capacity []float64, headroom float64) []float64 {
	if headroom <= 0 || headroom > 1 {
		panic(fmt.Sprintf("experiment: headroom %v outside (0,1]", headroom))
	}
	out := make([]float64, len(capacity))
	for j, c := range capacity {
		out[j] = c / headroom
	}
	return out
}

// Built is a fully materialized scenario.
type Built struct {
	Scenario Scenario
	Graph    *topology.Graph
	Delay    *topology.DelayMatrix
	Devices  []workload.Device
	Instance *gap.Instance
	// Capacity is the per-edge capacity used for the instance (compute
	// units per second).
	Capacity []float64
}

// Build materializes the scenario deterministically.
func (s Scenario) Build() (*Built, error) {
	s = s.withDefaults()
	if s.NumIoT <= 0 || s.NumEdge <= 0 {
		return nil, fmt.Errorf("experiment: scenario needs NumIoT and NumEdge > 0, got %d, %d", s.NumIoT, s.NumEdge)
	}
	if p := s.PayloadKB; p < 0 || math.IsNaN(p) || math.IsInf(p, 1) {
		return nil, fmt.Errorf("experiment: scenario payload %v KB must be finite and >= 0", p)
	}
	cfg := topology.Config{
		NumIoT:      s.NumIoT,
		NumEdge:     s.NumEdge,
		NumGateways: s.NumGateways,
		NumRouters:  s.NumEdge,
		Links:       s.Links,
		Seed:        xrand.SplitSeed(s.Seed, "topology"),
	}
	topoPh := s.Trace.Child("topology")
	g, err := topology.Generate(s.Family, cfg, s.Place)
	topoPh.SetAttr("family", string(s.Family))
	topoPh.End()
	if err != nil {
		return nil, fmt.Errorf("experiment: generating topology: %w", err)
	}
	cost := topology.LatencyCost
	if s.PayloadKB > 0 {
		cost = topology.PayloadCost(s.PayloadKB)
	}
	dmPh := s.Trace.Child("delay-matrix")
	dm := topology.NewDelayMatrixTraced(g, cost, s.Workers, dmPh)
	dmPh.SetAttr("iot", dm.NumIoT())
	dmPh.SetAttr("edge", dm.NumEdge())
	dmPh.End()
	wlPh := s.Trace.Child("workload")
	devices, err := workload.Generate(s.NumIoT, workload.DefaultProfile(xrand.SplitSeed(s.Seed, "workload")))
	wlPh.End()
	if err != nil {
		return nil, fmt.Errorf("experiment: generating workload: %w", err)
	}
	instPh := s.Trace.Child("instance")
	defer instPh.End()
	capacity, err := Capacities(s.NumEdge, devices, s.Rho)
	if err != nil {
		return nil, fmt.Errorf("experiment: sizing capacities: %w", err)
	}
	if s.CapacitySkew != 0 {
		if s.CapacitySkew < 0 || s.CapacitySkew >= 1 {
			return nil, fmt.Errorf("experiment: CapacitySkew %v outside [0,1)", s.CapacitySkew)
		}
		for j := range capacity {
			if j%2 == 0 {
				capacity[j] *= 1 + s.CapacitySkew
			} else {
				capacity[j] *= 1 - s.CapacitySkew
			}
		}
	}
	in, err := gap.FromTopology(dm, devices, capacity)
	if err != nil {
		return nil, fmt.Errorf("experiment: building instance: %w", err)
	}
	return &Built{
		Scenario: s,
		Graph:    g,
		Delay:    dm,
		Devices:  devices,
		Instance: in,
		Capacity: capacity,
	}, nil
}
