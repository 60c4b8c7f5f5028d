package assign

import (
	"fmt"
	"math"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// Greedy places devices heaviest-first, each on its cheapest edge with
// remaining capacity. This is the standard "nearest edge with room"
// strategy that topology-unaware deployments use, and the main
// state-of-the-art baseline in the evaluation.
type Greedy struct{}

// NewGreedy returns the greedy assigner.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Assigner.
func (*Greedy) Name() string { return "greedy" }

// Assign implements Assigner.
func (g *Greedy) Assign(in *gap.Instance) (*gap.Assignment, error) {
	of := make([]int, in.N())
	residual := residuals(in)
	for _, i := range byDecreasingLoad(in) {
		j := cheapestFeasible(in, residual, i)
		if j < 0 {
			return nil, fmt.Errorf("assign/greedy: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
		of[i] = j
		residual[j] -= in.WeightAt(i, j)
	}
	return finish(in, of, "greedy")
}

// RegretGreedy is the Martello–Toth style constructive heuristic:
// repeatedly place the unassigned device whose penalty for not getting its
// best edge (second-best minus best feasible cost) is largest.
type RegretGreedy struct{}

// NewRegretGreedy returns the regret-based greedy assigner.
func NewRegretGreedy() *RegretGreedy { return &RegretGreedy{} }

// Name implements Assigner.
func (*RegretGreedy) Name() string { return "regret-greedy" }

// Assign implements Assigner.
//
// Each unassigned device caches its best feasible cost, the edge that
// attains it first and its second-best cost, so a round is one pass over
// the caches instead of a rescan of every device over every edge. The
// caches stay exact because residuals only fall (NewInstance requires
// positive weights): placing a device on edge j can only drop j from
// other devices' feasible sets, and dropping an edge that costs more than
// a device's cached second-best changes neither cached value nor the best
// edge. Only devices for which j stopped fitting and whose cost on j is at
// most their second-best are rescanned.
func (rg *RegretGreedy) Assign(in *gap.Instance) (*gap.Assignment, error) {
	n := in.N()
	of := make([]int, n)
	assigned := make([]bool, n)
	residual := residuals(in)
	first := make([]float64, n)
	second := make([]float64, n)
	firstJ := make([]int, n)
	scan := func(i int) {
		first[i], second[i], firstJ[i] = math.Inf(1), math.Inf(1), -1
		for j, c := range in.CostRow(i) {
			if !fits(in, residual, i, j) {
				continue
			}
			switch {
			case c < first[i]:
				second[i], first[i], firstJ[i] = first[i], c, j
			case c < second[i]:
				second[i] = c
			}
		}
	}
	for i := 0; i < n; i++ {
		scan(i)
	}
	for placed := 0; placed < n; placed++ {
		bestDev := -1
		bestRegret := math.Inf(-1)
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			if firstJ[i] < 0 {
				return nil, fmt.Errorf("assign/regret-greedy: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
			}
			regret := second[i] - first[i]
			if math.IsInf(second[i], 1) {
				// Only one feasible edge left: must place now.
				regret = math.Inf(1)
			}
			if regret > bestRegret {
				bestRegret, bestDev = regret, i
			}
		}
		j := firstJ[bestDev]
		of[bestDev] = j
		assigned[bestDev] = true
		before := residual[j]
		residual[j] -= in.WeightAt(bestDev, j)
		for i := 0; i < n; i++ {
			w := in.WeightAt(i, j)
			if !assigned[i] && in.CostAt(i, j) <= second[i] && w <= before+1e-12 && w > residual[j]+1e-12 {
				scan(i)
			}
		}
	}
	return finish(in, of, "regret-greedy")
}

// FirstFit places devices in index order on the lowest-indexed edge with
// room, ignoring delay entirely — the capacity-only baseline.
type FirstFit struct{}

// NewFirstFit returns the first-fit assigner.
func NewFirstFit() *FirstFit { return &FirstFit{} }

// Name implements Assigner.
func (*FirstFit) Name() string { return "first-fit" }

// Assign implements Assigner.
func (ff *FirstFit) Assign(in *gap.Instance) (*gap.Assignment, error) {
	of := make([]int, in.N())
	residual := residuals(in)
	for i := 0; i < in.N(); i++ {
		placed := false
		for j := 0; j < in.M(); j++ {
			if fits(in, residual, i, j) {
				of[i] = j
				residual[j] -= in.WeightAt(i, j)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("assign/first-fit: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
	}
	return finish(in, of, "first-fit")
}

// RoundRobin cycles through edges, skipping full ones — the load-balancing
// baseline that spreads devices evenly regardless of delay.
type RoundRobin struct{}

// NewRoundRobin returns the round-robin assigner.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Assigner.
func (*RoundRobin) Name() string { return "round-robin" }

// Assign implements Assigner.
func (rr *RoundRobin) Assign(in *gap.Instance) (*gap.Assignment, error) {
	of := make([]int, in.N())
	residual := residuals(in)
	next := 0
	for i := 0; i < in.N(); i++ {
		placed := false
		for tries := 0; tries < in.M(); tries++ {
			j := (next + tries) % in.M()
			if fits(in, residual, i, j) {
				of[i] = j
				residual[j] -= in.WeightAt(i, j)
				next = (j + 1) % in.M()
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("assign/round-robin: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
	}
	return finish(in, of, "round-robin")
}

// Random assigns each device to a uniformly random feasible edge — the
// floor any reasonable algorithm must beat.
type Random struct {
	seed int64
}

// NewRandom returns a random assigner with the given seed.
func NewRandom(seed int64) *Random { return &Random{seed: seed} }

// Name implements Assigner.
func (*Random) Name() string { return "random" }

// Assign implements Assigner.
func (r *Random) Assign(in *gap.Instance) (*gap.Assignment, error) {
	src := xrand.NewSplit(r.seed, "random-assign")
	of := make([]int, in.N())
	residual := residuals(in)
	// Heaviest-first still, so pure bad luck doesn't mask capacity
	// infeasibility that other algorithms would survive.
	feasible := make([]int, 0, in.M())
	for _, i := range byDecreasingLoad(in) {
		feasible = feasible[:0]
		for j := 0; j < in.M(); j++ {
			if fits(in, residual, i, j) {
				feasible = append(feasible, j)
			}
		}
		if len(feasible) == 0 {
			return nil, fmt.Errorf("assign/random: device %d has no edge with capacity: %w", i, gap.ErrInfeasible)
		}
		j := feasible[src.Intn(len(feasible))]
		of[i] = j
		residual[j] -= in.WeightAt(i, j)
	}
	return finish(in, of, "random")
}
