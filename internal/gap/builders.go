package gap

import (
	"fmt"

	"taccc/internal/topology"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// FromTopology binds a topology-derived delay matrix and a device
// population into a GAP instance. Device i's weight on every edge is its
// steady-state load (rate × compute), stored once per device;
// capacities are supplied per edge and copied.
//
// The instance adopts the matrix's row-major store (dm.Store) instead of
// copying it: after the call, dm.DelayMs's rows are the instance's cost
// rows, under CostRow's contract that nobody writes to them. Only a
// hand-built matrix, whose rows are not views of such a store, is
// copied.
func FromTopology(dm *topology.DelayMatrix, devices []workload.Device, capacity []float64) (*Instance, error) {
	if dm.NumIoT() != len(devices) {
		return nil, fmt.Errorf("gap: delay matrix has %d IoT rows, got %d devices", dm.NumIoT(), len(devices))
	}
	if dm.NumEdge() != len(capacity) {
		return nil, fmt.Errorf("gap: delay matrix has %d edge cols, got %d capacities", dm.NumEdge(), len(capacity))
	}
	n, m := dm.NumIoT(), dm.NumEdge()
	cost := dm.Store()
	if cost == nil {
		cost = make([]float64, n*m)
		for i := 0; i < n; i++ {
			copy(cost[i*m:(i+1)*m], dm.DelayMs[i])
		}
	}
	load := make([]float64, n)
	for i := range load {
		load[i] = devices[i].Load()
	}
	capCopy := make([]float64, m)
	copy(capCopy, capacity)
	return newInstance(n, cost, load, capCopy)
}

// UniformCapacities returns m equal capacities sized so that the cluster's
// total capacity is total/rho, i.e. rho is the target system utilization
// (capacity tightness). rho must be in (0, 1].
func UniformCapacities(m int, totalLoad, rho float64) ([]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("gap: UniformCapacities needs m > 0, got %d", m)
	}
	if !(rho > 0 && rho <= 1) {
		return nil, fmt.Errorf("gap: rho must be in (0,1], got %v", rho)
	}
	if totalLoad < 0 {
		return nil, fmt.Errorf("gap: negative total load %v", totalLoad)
	}
	per := totalLoad / rho / float64(m)
	out := make([]float64, m)
	for j := range out {
		out[j] = per
	}
	return out, nil
}

// SyntheticKind selects a classic GAP instance family from the OR
// literature (Martello–Toth classes), used for algorithm unit tests and
// the optimality-gap experiment.
type SyntheticKind int

// Synthetic instance families.
const (
	// SyntheticUniform draws costs and weights i.i.d. uniformly.
	SyntheticUniform SyntheticKind = iota + 1
	// SyntheticCorrelated makes cost inversely related to weight, the
	// harder classic family (cheap placements consume more capacity).
	SyntheticCorrelated
)

// Synthetic generates a random GAP instance with n devices, m edges and
// capacity tightness rho in (0,1] (higher is tighter). Deterministic in
// seed.
func Synthetic(kind SyntheticKind, n, m int, rho float64, seed int64) (*Instance, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("gap: Synthetic needs n, m > 0, got %d, %d", n, m)
	}
	if !(rho > 0 && rho <= 1) {
		return nil, fmt.Errorf("gap: rho must be in (0,1], got %v", rho)
	}
	src := xrand.NewSplit(seed, "gap-synthetic")
	cost := make([]float64, n*m)
	weight := make([]float64, n*m)
	totalAvgW := 0.0
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < m; j++ {
			w := src.Uniform(5, 25)
			var c float64
			switch kind {
			case SyntheticCorrelated:
				// Classic class C/D flavor: cost decreases as
				// weight rises, plus noise.
				c = 111 - 3*w + src.Uniform(-10, 10)
				if c < 1 {
					c = 1
				}
			case SyntheticUniform:
				c = src.Uniform(10, 50)
			default:
				return nil, fmt.Errorf("gap: unknown synthetic kind %d", kind)
			}
			cost[i*m+j] = c
			weight[i*m+j] = w
			rowSum += w
		}
		totalAvgW += rowSum / float64(m)
	}
	// Martello–Toth style capacity sizing: at rho = 1 the total capacity
	// equals the total *average* weight, which is tight (solvers must
	// prefer below-average-weight placements) but almost always
	// feasible; smaller rho adds slack proportionally.
	capacity := make([]float64, m)
	per := totalAvgW / rho / float64(m)
	for j := range capacity {
		capacity[j] = per
	}
	return newInstance(n, cost, weight, capacity)
}
