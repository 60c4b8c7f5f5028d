package experiment

import (
	"errors"
	"fmt"

	"taccc/internal/gap"
	"taccc/internal/online"
	"taccc/internal/stats"
	"taccc/internal/topology"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// T4 evaluates online reconfiguration policies on a join-and-mobility
// trace: each device asks to join once, at an epoch in the first half
// of the run, and none leaves; every attached device moves (random
// waypoint) so delays drift each epoch, and one edge server fails
// midway, detaching the devices that cannot be re-placed. Policies trade
// delay against migration churn:
//
//   - join-only: place on arrival, never migrate (beyond failure
//     evacuation) — the "configure once" strawman.
//   - threshold: migrate any device whose best edge beats its current one
//     by more than a fixed gain.
//   - rebalance: periodically re-solve with the Q-learning assigner under
//     a migration budget.
func T4(o Options) ([]*Table, error) {
	o = o.withDefaults()
	m, epochs := 8, 16
	maxDevices := 80
	failEpoch := 8
	if o.Quick {
		m, epochs, maxDevices, failEpoch = 4, 8, 24, 4
	}
	const area = 4000.0

	type policyResult struct {
		name       string
		delay      stats.Welford
		migrations int
		stranded   int
		rejected   int
	}
	// The three built-in online.Policy implementations, compared on the
	// same trace.
	mkPolicies := func(seed int64) []online.Policy {
		return []online.Policy{
			online.JoinOnly{},
			online.Threshold{},
			online.Rebalance{Seed: xrand.SplitSeed(seed, "rebalance")},
		}
	}
	policies := []string{"join-only", "threshold", "rebalance"}

	tab := &Table{
		ID:     "T4",
		Title:  fmt.Sprintf("online policies under churn+mobility, m=%d, %d epochs, edge 0 fails at epoch %d", m, epochs, failEpoch),
		Header: []string{"policy", "avg mean delay ms", "migrations", "stranded", "rejected joins"},
		Note:   fmt.Sprintf("%d replications; delay averaged over epochs and attached devices", o.Reps),
	}

	results := make([]*policyResult, len(policies))
	for i, p := range policies {
		results[i] = &policyResult{name: p}
	}

	for r := 0; r < o.Reps; r++ {
		seed := xrand.SplitSeed(o.Seed, fmt.Sprintf("T4-%d", r))
		infra, err := topology.HierarchicalInfra(topology.Config{
			NumIoT: 1, NumEdge: m, NumGateways: 2 * m, AreaMeters: area,
			Seed: xrand.SplitSeed(seed, "infra"),
		})
		if err != nil {
			return nil, err
		}
		devices, err := workload.Generate(maxDevices, workload.DefaultProfile(xrand.SplitSeed(seed, "devices")))
		if err != nil {
			return nil, err
		}
		capacity, err := Capacities(m, devices, 0.7)
		if err != nil {
			return nil, err
		}
		// Deterministic join script: device i joins at an epoch drawn
		// uniformly from the first half of the run, and no device leaves.
		churn := xrand.NewSplit(seed, "churn")
		joinEpoch := make([]int, maxDevices)
		for i := range joinEpoch {
			joinEpoch[i] = churn.Intn(epochs / 2)
		}

		// Every policy replays the same walkers, so each epoch's delay
		// vectors come from one topology snapshot, built once here.
		walkers := make([]*workload.RandomWaypoint, maxDevices)
		for i := range walkers {
			w, err := workload.NewRandomWaypoint(area, 1, 12, 4_000,
				xrand.New(xrand.SplitSeed(seed, fmt.Sprintf("walker-%d", i))))
			if err != nil {
				return nil, err
			}
			walkers[i] = w
		}
		epochCosts := make([][][]float64, epochs)
		xs := make([]float64, maxDevices)
		ys := make([]float64, maxDevices)
		for e := range epochCosts {
			for i, w := range walkers {
				p := w.Pos()
				xs[i], ys[i] = p.X, p.Y
				w.Advance(60_000)
			}
			g := infra.Clone()
			if err := topology.AttachIoTAt(g, xs, ys, topology.LinkParams{},
				xrand.SplitSeed(seed, fmt.Sprintf("attach-%d", e))); err != nil {
				return nil, err
			}
			epochCosts[e] = topology.NewDelayMatrix(g, topology.LatencyCost).DelayMs
		}

		for pi, policy := range mkPolicies(seed) {
			res := results[pi]
			ctrl, err := online.NewController(capacity)
			if err != nil {
				return nil, err
			}
			attached := make(map[int]bool)
			for e, costs := range epochCosts {
				// Joins due this epoch.
				for i := 0; i < maxDevices; i++ {
					if e == joinEpoch[i] && !attached[i] {
						if _, err := ctrl.Join(i, costs[i], devices[i].Load()); err != nil {
							if errors.Is(err, online.ErrNoCapacity) {
								res.rejected++
								continue
							}
							return nil, err
						}
						attached[i] = true
					}
				}
				// Refresh delay vectors for attached devices.
				for i := range attached {
					if err := ctrl.UpdateCosts(i, costs[i]); err != nil {
						return nil, err
					}
				}
				// Failure injection.
				if e == failEpoch {
					stranded, err := ctrl.FailEdge(0)
					if err != nil {
						return nil, err
					}
					res.stranded += len(stranded)
					for _, id := range stranded {
						delete(attached, id)
					}
				}
				// Policy action. A transiently unsolvable snapshot
				// just skips this round's maintenance.
				if err := policy.Tick(e, ctrl); err != nil && !errors.Is(err, gap.ErrInfeasible) {
					return nil, err
				}
				if ctrl.NumDevices() > 0 {
					res.delay.Add(ctrl.MeanDelay())
				}
			}
			res.migrations += ctrl.Migrations()
		}
	}
	for _, res := range results {
		tab.AddRow(res.name, res.delay.Mean(),
			res.migrations/o.Reps, res.stranded/o.Reps, res.rejected/o.Reps)
	}
	return []*Table{tab}, nil
}
