package online

import (
	"fmt"

	"taccc/internal/assign"
)

// Policy decides what maintenance a controller performs at each epoch of a
// dynamic deployment. Policies are invoked by the caller's epoch loop
// after device costs have been refreshed (UpdateCosts) and churn applied.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Tick performs this epoch's maintenance on the controller.
	Tick(epoch int, c *Controller) error
}

// JoinOnly performs no maintenance: devices stay where Join put them (the
// "configure once" strawman baseline).
type JoinOnly struct{}

// Name implements Policy.
func (JoinOnly) Name() string { return "join-only" }

// Tick implements Policy.
func (JoinOnly) Tick(int, *Controller) error { return nil }

// Threshold migrates every device whose best edge beats its current one by
// more than thresholdGainMs, every epoch. Cheap, reactive,
// migration-heavy.
type Threshold struct{}

// thresholdGainMs is the minimum improvement that justifies a Threshold
// migration.
const thresholdGainMs = 0.5

// Name implements Policy.
func (Threshold) Name() string { return "threshold" }

// Tick implements Policy.
func (Threshold) Tick(_ int, c *Controller) error {
	_, err := c.SweepMigrate(thresholdGainMs)
	return err
}

// Rebalance re-solves the configuration with 150-episode Q-learning at
// every odd epoch, migrating at most a fifth of the attached devices —
// the planned, bounded-churn policy.
type Rebalance struct {
	// Seed, plus the epoch, seeds each epoch's Q-learning solve.
	Seed int64
}

// Name implements Policy.
func (r Rebalance) Name() string { return "rebalance" }

// Tick implements Policy.
func (r Rebalance) Tick(epoch int, c *Controller) error {
	if epoch%2 != 1 || c.NumDevices() == 0 {
		return nil
	}
	budget := int(float64(c.NumDevices()) * 0.2)
	q := assign.NewQLearning(r.Seed + int64(epoch))
	q.Params.Episodes = 150
	if _, err := c.Rebalance(q, budget); err != nil {
		// A transiently unsolvable snapshot skips this round; any
		// other error propagates.
		return fmt.Errorf("online: rebalance tick (epoch %d): %w", epoch, err)
	}
	return nil
}
