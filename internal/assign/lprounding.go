package assign

import (
	"fmt"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// LPRounding solves the instance's linear relaxation and rounds the
// fractional solution: devices that the LP assigns integrally keep their
// edge; fractional devices are placed (heaviest first) on the edge with
// the largest LP mass that still has residual capacity, with greedy
// fallback and the shared repair operator as a safety net. A classical
// LP-guided baseline in the spirit of Shmoys–Tardos.
type LPRounding struct {
	seed int64
}

// NewLPRounding returns an LP-rounding assigner.
func NewLPRounding(seed int64) *LPRounding { return &LPRounding{seed: seed} }

// Name implements Assigner.
func (*LPRounding) Name() string { return "lp-rounding" }

// Assign implements Assigner.
func (lr *LPRounding) Assign(in *gap.Instance) (*gap.Assignment, error) {
	x, _, err := gap.LPRelaxation(in)
	if err != nil {
		return nil, fmt.Errorf("assign/lp-rounding: %w", err)
	}
	n, m := in.N(), in.M()
	of := make([]int, n)
	residual := residuals(in)
	const integral = 1 - 1e-6

	// Pass 1: lock in integral assignments.
	var fractional []int
	for i := 0; i < n; i++ {
		placed := false
		for j := 0; j < m; j++ {
			if x[i][j] >= integral {
				of[i] = j
				residual[j] -= in.WeightAt(i, j)
				placed = true
				break
			}
		}
		if !placed {
			of[i] = -1
			fractional = append(fractional, i)
		}
	}
	// Pass 2: fractional devices, heaviest first, follow their largest
	// feasible LP mass.
	heaviestFirst(in, fractional)
	for _, i := range fractional {
		best, bestMass := -1, 0.0
		for j := 0; j < m; j++ {
			if x[i][j] > bestMass && fits(in, residual, i, j) {
				best, bestMass = j, x[i][j]
			}
		}
		if best < 0 {
			best = cheapestFeasible(in, residual, i)
		}
		if best < 0 {
			// Leave unplaced; the repair pass below gets one more
			// chance by relocating other devices.
			continue
		}
		of[i] = best
		residual[best] -= in.WeightAt(i, best)
	}
	for _, i := range fractional {
		if of[i] >= 0 {
			continue
		}
		src := xrand.NewSplit(lr.seed, "lp-repair")
		if !newRepairState(in).repair(in, of, src) {
			return nil, fmt.Errorf("assign/lp-rounding: rounding could not restore capacity: %w", gap.ErrInfeasible)
		}
		break
	}
	return finish(in, of, "lp-rounding")
}
