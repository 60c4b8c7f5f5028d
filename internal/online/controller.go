// Package online maintains a live cluster configuration as IoT devices
// join, leave and move: the incremental counterpart of the one-shot
// assignment in internal/assign. A Controller tracks per-edge residual
// capacity and the current placement, places arrivals immediately, and
// supports bounded-migration rebalancing driven by any batch Assigner —
// the mechanism behind the paper's "cluster configuration" framing, where
// the assignment is an operating point that must be maintained, not a
// one-time computation.
package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"taccc/internal/assign"
	"taccc/internal/gap"
)

// ErrNoCapacity is returned when a device cannot be placed on any edge.
var ErrNoCapacity = errors.New("online: no edge has capacity for device")

// ErrUnknownDevice is returned for operations on devices not present.
var ErrUnknownDevice = errors.New("online: unknown device")

// device is the controller's view of one attached IoT device.
type device struct {
	costs  []float64 // current delay to each edge (ms)
	weight float64   // capacity consumed
	edge   int       // current placement
}

// Controller owns the live configuration. It is not safe for concurrent
// use; wrap with a mutex if shared.
type Controller struct {
	capacity []float64
	residual []float64
	devices  map[int]*device

	migrations int
}

// NewController creates a controller over m edges with the given
// capacities, each non-negative and finite.
func NewController(capacity []float64) (*Controller, error) {
	if len(capacity) == 0 {
		return nil, errors.New("online: no edges")
	}
	for j, c := range capacity {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("online: invalid capacity %v at edge %d", c, j)
		}
	}
	c := &Controller{
		capacity: append([]float64(nil), capacity...),
		residual: append([]float64(nil), capacity...),
		devices:  make(map[int]*device),
	}
	return c, nil
}

// NumDevices returns the number of attached devices.
func (c *Controller) NumDevices() int { return len(c.devices) }

// Migrations returns the cumulative count of placement changes applied to
// already-attached devices (joins don't count).
func (c *Controller) Migrations() int { return c.migrations }

// TotalDelay returns the summed current delay over attached devices.
// Devices are folded in ascending id order: FP addition is not
// associative, and summing in map-iteration order would make the last
// bits of the total vary run to run.
func (c *Controller) TotalDelay() float64 {
	ids := make([]int, 0, len(c.devices))
	for id := range c.devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	total := 0.0
	for _, id := range ids {
		d := c.devices[id]
		total += d.costs[d.edge]
	}
	return total
}

// MeanDelay returns the mean per-device delay (0 when empty).
func (c *Controller) MeanDelay() float64 {
	if len(c.devices) == 0 {
		return 0
	}
	return c.TotalDelay() / float64(len(c.devices))
}

// Loads returns the consumed capacity per edge.
func (c *Controller) Loads() []float64 {
	out := make([]float64, len(c.capacity))
	for j := range out {
		out[j] = c.capacity[j] - c.residual[j]
	}
	return out
}

// Utilization returns per-edge load/capacity (0 for zero-capacity edges
// with no load, +Inf otherwise).
func (c *Controller) Utilization() []float64 {
	out := make([]float64, len(c.capacity))
	for j, load := range c.Loads() {
		switch {
		case c.capacity[j] > 0:
			out[j] = load / c.capacity[j]
		case load > 0:
			out[j] = math.Inf(1)
		}
	}
	return out
}

func (c *Controller) checkCosts(costs []float64, weight float64) error {
	if len(costs) != len(c.capacity) {
		return fmt.Errorf("online: got %d costs for %d edges", len(costs), len(c.capacity))
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("online: invalid device weight %v", weight)
	}
	for j, d := range costs {
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("online: invalid cost %v for edge %d", d, j)
		}
	}
	return nil
}

// Join attaches a new device, placing it on the cheapest edge with
// residual capacity. Returns the chosen edge.
func (c *Controller) Join(id int, costs []float64, weight float64) (int, error) {
	if _, dup := c.devices[id]; dup {
		return 0, fmt.Errorf("online: device %d already attached", id)
	}
	if err := c.checkCosts(costs, weight); err != nil {
		return 0, err
	}
	best, bestCost := -1, math.Inf(1)
	for j := range c.capacity {
		if weight <= c.residual[j]+1e-12 && costs[j] < bestCost {
			best, bestCost = j, costs[j]
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("online: joining device %d: %w", id, ErrNoCapacity)
	}
	c.devices[id] = &device{costs: append([]float64(nil), costs...), weight: weight, edge: best}
	c.residual[best] -= weight
	return best, nil
}

// Leave detaches a device and frees its capacity.
func (c *Controller) Leave(id int) error {
	d, ok := c.devices[id]
	if !ok {
		return fmt.Errorf("online: leaving device %d: %w", id, ErrUnknownDevice)
	}
	c.residual[d.edge] += d.weight
	delete(c.devices, id)
	return nil
}

// UpdateCosts replaces a device's delay vector (e.g. after it moved). The
// placement is unchanged; call Migrate or Rebalance to act on it.
func (c *Controller) UpdateCosts(id int, costs []float64) error {
	d, ok := c.devices[id]
	if !ok {
		return fmt.Errorf("online: updating device %d: %w", id, ErrUnknownDevice)
	}
	if err := c.checkCosts(costs, d.weight); err != nil {
		return err
	}
	copy(d.costs, costs)
	return nil
}

// Migrate moves one device to the cheapest feasible edge if that improves
// its delay by more than absGainMs. It reports whether a migration
// happened.
func (c *Controller) Migrate(id int, absGainMs float64) (bool, error) {
	d, ok := c.devices[id]
	if !ok {
		return false, fmt.Errorf("online: migrating device %d: %w", id, ErrUnknownDevice)
	}
	best, bestCost := d.edge, d.costs[d.edge]
	for j := range c.capacity {
		if j == d.edge {
			continue
		}
		if d.weight <= c.residual[j]+1e-12 && d.costs[j] < bestCost {
			best, bestCost = j, d.costs[j]
		}
	}
	if best == d.edge || d.costs[d.edge]-bestCost <= absGainMs {
		return false, nil
	}
	c.residual[d.edge] += d.weight
	c.residual[best] -= d.weight
	d.edge = best
	c.migrations++
	return true, nil
}

// SweepMigrate runs Migrate over every device (ascending ID for
// determinism) and returns the number of migrations performed.
func (c *Controller) SweepMigrate(absGainMs float64) (int, error) {
	moved := 0
	for _, id := range c.sortedIDs() {
		did, err := c.Migrate(id, absGainMs)
		if err != nil {
			return moved, err
		}
		if did {
			moved++
		}
	}
	return moved, nil
}

// Snapshot exports the live state as a GAP instance plus the current
// assignment. The i-th row of the instance corresponds to ids[i].
func (c *Controller) Snapshot() (ids []int, in *gap.Instance, current *gap.Assignment, err error) {
	if len(c.devices) == 0 {
		return nil, nil, nil, errors.New("online: snapshot of empty controller")
	}
	ids = c.sortedIDs()
	n, m := len(ids), len(c.capacity)
	cost := make([][]float64, n)
	weight := make([][]float64, n)
	of := make([]int, n)
	for k, id := range ids {
		d := c.devices[id]
		cost[k] = append([]float64(nil), d.costs...)
		weight[k] = make([]float64, m)
		for j := range weight[k] {
			weight[k][j] = d.weight
		}
		of[k] = d.edge
	}
	in, err = gap.NewInstance(cost, weight, append([]float64(nil), c.capacity...))
	if err != nil {
		return nil, nil, nil, err
	}
	current, err = gap.NewAssignment(in, of)
	if err != nil {
		return nil, nil, nil, err
	}
	return ids, in, current, nil
}

// Rebalance re-solves the configuration with the given batch assigner and
// applies at most maxMigrations placement changes, chosen by largest
// per-device delay gain. maxMigrations < 0 means unlimited. It returns the
// number of migrations applied.
//
// Applying a subset of a feasible target assignment can transiently need
// ordering to respect capacity; moves are applied greedily and any move
// that would overload its target at apply time is skipped, so the
// controller never enters an overloaded state.
func (c *Controller) Rebalance(a assign.Assigner, maxMigrations int) (int, error) {
	ids, in, current, err := c.Snapshot()
	if err != nil {
		return 0, err
	}
	target, err := a.Assign(in)
	if err != nil {
		return 0, fmt.Errorf("online: rebalance solve: %w", err)
	}
	type move struct {
		id   int
		to   int
		gain float64
	}
	var moves []move
	for k, id := range ids {
		if target.Of[k] == current.Of[k] {
			continue
		}
		d := c.devices[id]
		moves = append(moves, move{
			id:   id,
			to:   target.Of[k],
			gain: d.costs[d.edge] - d.costs[target.Of[k]],
		})
	}
	sort.SliceStable(moves, func(x, y int) bool { return moves[x].gain > moves[y].gain })
	if maxMigrations >= 0 && len(moves) > maxMigrations {
		moves = moves[:maxMigrations]
	}
	applied := 0
	// Two passes: releases first aren't separable (each move both
	// releases and claims), so iterate until fixpoint to let chains
	// apply in a capacity-safe order.
	for progress := true; progress; {
		progress = false
		for i := range moves {
			m := &moves[i]
			if m.id < 0 {
				continue
			}
			d := c.devices[m.id]
			if d.edge == m.to {
				m.id = -1
				continue
			}
			if d.weight > c.residual[m.to]+1e-12 {
				continue // blocked for now; maybe a later release frees it
			}
			c.residual[d.edge] += d.weight
			c.residual[m.to] -= d.weight
			d.edge = m.to
			c.migrations++
			applied++
			m.id = -1
			progress = true
		}
	}
	return applied, nil
}

// FailEdge evacuates an edge: its capacity drops to zero and every device
// on it is re-placed on the cheapest feasible edge. Devices that cannot be
// re-placed are detached and their IDs returned.
func (c *Controller) FailEdge(j int) (stranded []int, err error) {
	if j < 0 || j >= len(c.capacity) {
		return nil, fmt.Errorf("online: failing invalid edge %d", j)
	}
	c.capacity[j] = 0
	c.residual[j] = 0
	for _, id := range c.sortedIDs() {
		d := c.devices[id]
		if d.edge != j {
			continue
		}
		best, bestCost := -1, math.Inf(1)
		for e := range c.capacity {
			if e == j {
				continue
			}
			if d.weight <= c.residual[e]+1e-12 && d.costs[e] < bestCost {
				best, bestCost = e, d.costs[e]
			}
		}
		if best < 0 {
			stranded = append(stranded, id)
			delete(c.devices, id)
			continue
		}
		c.residual[best] -= d.weight
		d.edge = best
		c.migrations++
	}
	return stranded, nil
}

func (c *Controller) sortedIDs() []int {
	ids := make([]int, 0, len(c.devices))
	for id := range c.devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
