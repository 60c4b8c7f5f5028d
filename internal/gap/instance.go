// Package gap models the Generalized Assignment Problem instance that the
// paper reduces cluster configuration to: assign each IoT device i to
// exactly one edge device j, minimizing total communication delay
// Σ cost[i][a(i)] subject to per-edge capacity Σ_{a(i)=j} weight[i][j] <=
// capacity[j]. The package holds the instance model, objectives,
// feasibility checks, lower bounds and exact solvers; heuristics live in
// internal/assign.
package gap

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrInfeasible is returned when no capacity-respecting assignment can be
// found (by exact solvers: proven; by heuristics: not found).
var ErrInfeasible = errors.New("gap: no feasible assignment found")

// Instance is an immutable GAP instance. Construct with NewInstance (which
// validates) and treat as read-only afterwards; solvers share instances
// across goroutines.
type Instance struct {
	// Capacity[j] is edge j's capacity.
	Capacity []float64

	// n is the device count. cost holds the n×M() delay matrix (ms, +Inf
	// for unreachable pairs) row-major, entry (i,j) at index i*M()+j,
	// read through CostRow and CostAt. weight holds the capacity each
	// device consumes, read through WeightAt as weight[i*wRow+j*wCol], in
	// one of two layouts: dense, n×M() row-major with (wRow, wCol) =
	// (M(), 1), or row-constant, one weight per device that holds on
	// every edge, with (wRow, wCol) = (1, 0).
	n          int
	cost       []float64
	weight     []float64
	wRow, wCol int
}

// NewInstance validates the given matrices and copies them into the
// instance's store; the caller keeps ownership of its slices. Dimensions
// must agree, weights must be positive and finite, capacities
// non-negative and finite, and costs non-negative (+Inf allowed to mark
// unreachable pairs).
func NewInstance(costMs, weight [][]float64, capacity []float64) (*Instance, error) {
	n, m := len(costMs), len(capacity)
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	if len(weight) != n {
		return nil, fmt.Errorf("gap: weight rows %d != cost rows %d", len(weight), n)
	}
	// Check every row's shape before allocating, so the store is never
	// larger than the input.
	for i := 0; i < n; i++ {
		if len(costMs[i]) != m {
			return nil, fmt.Errorf("gap: cost row %d has %d cols, want %d", i, len(costMs[i]), m)
		}
		if len(weight[i]) != m {
			return nil, fmt.Errorf("gap: weight row %d has %d cols, want %d", i, len(weight[i]), m)
		}
	}
	cost, w := make([]float64, n*m), make([]float64, n*m)
	for i := 0; i < n; i++ {
		copy(cost[i*m:], costMs[i])
		copy(w[i*m:], weight[i])
	}
	return newInstance(n, cost, w, capacity)
}

// newInstance validates a row-major cost store of n devices over
// len(capacity) edges and a weight store that is either dense (n×m) or
// row-constant (n long), with NewInstance's checks and error text, and
// adopts the slices without copying them.
func newInstance(n int, cost, weight, capacity []float64) (*Instance, error) {
	m := len(capacity)
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	in := &Instance{Capacity: capacity, n: n, cost: cost, weight: weight, wRow: m, wCol: 1}
	if len(weight) != n*m {
		in.wRow, in.wCol = 1, 0
	}
	for i := 0; i < n; i++ {
		// A row-constant weight row is one long, so its weight is
		// checked once, where the dense store's first cell would be.
		ws := in.weightRow(i)
		for j, c := range in.CostRow(i) {
			if !(c >= 0) {
				return nil, fmt.Errorf("gap: invalid cost %v at (%d,%d)", c, i, j)
			}
			if j < len(ws) && !(ws[j] > 0 && ws[j] < math.Inf(1)) {
				return nil, fmt.Errorf("gap: invalid weight %v at (%d,%d)", ws[j], i, j)
			}
		}
	}
	for j, c := range capacity {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return nil, fmt.Errorf("gap: invalid capacity %v at edge %d", c, j)
		}
	}
	return in, nil
}

// checkDims rejects an instance without devices or without edges.
func checkDims(n, m int) error {
	if n == 0 {
		return errors.New("gap: instance has no devices")
	}
	if m == 0 {
		return errors.New("gap: instance has no edge devices")
	}
	return nil
}

// CostRow returns device i's delay row, a length-M() view of the store
// that callers must not write to.
func (in *Instance) CostRow(i int) []float64 {
	m := len(in.Capacity)
	return in.cost[i*m : (i+1)*m : (i+1)*m]
}

// CostAt returns the delay of serving device i from edge j.
func (in *Instance) CostAt(i, j int) float64 { return in.cost[i*len(in.Capacity)+j] }

// WeightAt returns the capacity device i consumes on edge j. It is the
// one weight accessor: a single strided read that serves the dense and
// the row-constant layout alike.
func (in *Instance) WeightAt(i, j int) float64 { return in.weight[i*in.wRow+j*in.wCol] }

// MaxWeight returns the largest capacity device i consumes on any edge:
// its one weight in the row-constant layout, the row's maximum in the
// dense one.
func (in *Instance) MaxWeight(i int) float64 { return slices.Max(in.weightRow(i)) }

// weightRow returns device i's stored weights: its row in the dense
// layout, its one weight in the row-constant layout (where wRow is 1).
func (in *Instance) weightRow(i int) []float64 { return in.weight[i*in.wRow : (i+1)*in.wRow] }

// N returns the number of devices.
func (in *Instance) N() int { return in.n }

// M returns the number of edge devices.
func (in *Instance) M() int { return len(in.Capacity) }

// Assignment maps each device to an edge: Of[i] = j. Produce via
// NewAssignment so lengths are checked.
type Assignment struct {
	// Of[i] is the edge device serving device i.
	Of []int
}

// NewAssignment validates of against the instance: correct length and
// in-range, reachable (finite-cost) targets.
func NewAssignment(in *Instance, of []int) (*Assignment, error) {
	if len(of) != in.N() {
		return nil, fmt.Errorf("gap: assignment length %d, want %d", len(of), in.N())
	}
	for i, j := range of {
		if j < 0 || j >= in.M() {
			return nil, fmt.Errorf("gap: device %d assigned to out-of-range edge %d", i, j)
		}
		if math.IsInf(in.CostAt(i, j), 1) {
			return nil, fmt.Errorf("gap: device %d assigned to unreachable edge %d", i, j)
		}
	}
	return &Assignment{Of: of}, nil
}

// TotalCost returns Σ cost[i][a(i)] for the assignment under in. An empty
// assignment sums to 0.
func (in *Instance) TotalCost(a *Assignment) float64 {
	return in.CostOf(a.Of)
}

// CostOf sums the delay of a raw placement vector in device order,
// skipping unplaced devices (of[i] < 0). It is TotalCost without the
// Assignment wrapper — solver inner loops use it so re-costing a work
// buffer allocates nothing — and the accumulation order (i ascending) is
// the contract every incremental evaluation must reproduce.
func (in *Instance) CostOf(of []int) float64 {
	total := 0.0
	for i, j := range of {
		if j >= 0 {
			total += in.CostAt(i, j)
		}
	}
	return total
}

// MeanCost returns TotalCost / N, or 0 for a degenerate instance with no
// devices (never NaN).
func (in *Instance) MeanCost(a *Assignment) float64 {
	if in.N() == 0 {
		return 0
	}
	return in.TotalCost(a) / float64(in.N())
}

// MaxCost returns the largest per-device cost in the assignment.
func (in *Instance) MaxCost(a *Assignment) float64 {
	max := 0.0
	for i, j := range a.Of {
		if c := in.CostAt(i, j); c > max {
			max = c
		}
	}
	return max
}

// Loads returns the per-edge consumed capacity under the assignment.
func (in *Instance) Loads(a *Assignment) []float64 {
	loads := make([]float64, in.M())
	for i, j := range a.Of {
		loads[j] += in.WeightAt(i, j)
	}
	return loads
}

// Feasible reports whether the assignment respects every capacity.
func (in *Instance) Feasible(a *Assignment) bool {
	return len(in.Violations(a)) == 0
}

// Violations returns the edges whose capacity is exceeded, with the excess.
type Violation struct {
	Edge   int
	Load   float64
	Excess float64
}

// Violations lists all overloaded edges under the assignment. A small
// epsilon absorbs floating-point accumulation error.
func (in *Instance) Violations(a *Assignment) []Violation {
	const eps = 1e-9
	var out []Violation
	for j, load := range in.Loads(a) {
		if load > in.Capacity[j]*(1+eps)+eps {
			out = append(out, Violation{Edge: j, Load: load, Excess: load - in.Capacity[j]})
		}
	}
	return out
}

// Utilization returns per-edge load/capacity ratios; edges with zero
// capacity report +Inf when loaded and 0 when empty.
func (in *Instance) Utilization(a *Assignment) []float64 {
	loads := in.Loads(a)
	out := make([]float64, in.M())
	for j, load := range loads {
		switch {
		case in.Capacity[j] > 0:
			out[j] = load / in.Capacity[j]
		case load > 0:
			out[j] = math.Inf(1)
		}
	}
	return out
}

// Imbalance returns the ratio of the maximum edge utilization to the mean
// utilization; 1.0 is perfectly balanced. Returns 0 for an all-idle
// cluster.
func (in *Instance) Imbalance(a *Assignment) float64 {
	util := in.Utilization(a)
	sum, max := 0.0, 0.0
	for _, u := range util {
		sum += u
		if u > max {
			max = u
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(util)))
}
