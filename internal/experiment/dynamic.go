package experiment

import (
	"errors"
	"fmt"
	"math"

	"taccc/internal/assign"
	"taccc/internal/gap"
	"taccc/internal/topology"
	"taccc/internal/workload"
	"taccc/internal/xrand"
)

// F7 plays out a dynamic deployment: devices move (random waypoint), the
// delay matrix drifts epoch by epoch, and an edge server fails midway.
// It compares a static assignment (computed once) against periodic
// reconfiguration with greedy and with Q-learning, reporting per-epoch
// mean delay, the fraction of devices the static policy can still serve,
// and the migration churn periodic reconfiguration pays.
func F7(o Options) ([]*Table, error) {
	o = o.withDefaults()
	n, m, epochs := 60, 10, 12
	epochMs := 60_000.0
	failEpoch := 6
	if o.Quick {
		n, m, epochs, failEpoch = 20, 4, 6, 3
	}
	const area = 5000.0

	seed := xrand.SplitSeed(o.Seed, "F7")
	infraCfg := topology.Config{
		NumIoT: 1, NumEdge: m, NumGateways: 2 * m, NumRouters: m,
		AreaMeters: area, Seed: xrand.SplitSeed(seed, "infra"),
	}
	infra, err := topology.HierarchicalInfra(infraCfg)
	if err != nil {
		return nil, err
	}
	devices, err := workload.Generate(n, workload.DefaultProfile(xrand.SplitSeed(seed, "devices")))
	if err != nil {
		return nil, err
	}
	capacity, err := Capacities(m, devices, 0.7)
	if err != nil {
		return nil, err
	}
	walkers := make([]*workload.RandomWaypoint, n)
	for i := range walkers {
		w, err := workload.NewRandomWaypoint(area, 1, 15, 5_000,
			xrand.New(xrand.SplitSeed(seed, fmt.Sprintf("walker-%d", i))))
		if err != nil {
			return nil, err
		}
		walkers[i] = w
	}

	// buildEpoch snapshots device positions into a GAP instance; failed
	// marks one edge column unreachable.
	buildEpoch := func(epoch int, failed bool) (*gap.Instance, error) {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i, w := range walkers {
			p := w.Pos()
			xs[i], ys[i] = p.X, p.Y
		}
		g := infra.Clone()
		if err := topology.AttachIoTAt(g, xs, ys, topology.LinkParams{},
			xrand.SplitSeed(seed, fmt.Sprintf("attach-%d", epoch))); err != nil {
			return nil, err
		}
		dm := topology.NewDelayMatrix(g, topology.LatencyCost)
		if failed {
			for i := range dm.DelayMs {
				dm.DelayMs[i][0] = math.Inf(1)
			}
		}
		return gap.FromTopology(dm, devices, capacity)
	}

	solve := func(a assign.Assigner, in *gap.Instance) (*gap.Assignment, error) {
		got, err := a.Assign(in)
		if err != nil && !errors.Is(err, gap.ErrInfeasible) {
			return nil, err
		}
		return got, nil
	}

	// Static assignment from epoch 0.
	in0, err := buildEpoch(0, false)
	if err != nil {
		return nil, err
	}
	static, err := solve(assign.NewQLearning(xrand.SplitSeed(seed, "static")), in0)
	if err != nil {
		return nil, err
	}
	if static == nil {
		return nil, fmt.Errorf("experiment: F7 epoch-0 instance infeasible")
	}

	tab := &Table{
		ID:     "F7",
		Title:  fmt.Sprintf("dynamic scenario: n=%d m=%d, edge 0 fails at epoch %d", n, m, failEpoch),
		Header: []string{"epoch", "static ms", "static served %", "periodic-greedy ms", "periodic-qlearning ms", "migrations (q)"},
		Note:   "per-epoch mean delay over served devices; periodic policies re-solve each epoch",
	}

	var prevQ *gap.Assignment
	for e := 0; e < epochs; e++ {
		failed := e >= failEpoch
		in, err := buildEpoch(e, failed)
		if err != nil {
			return nil, err
		}
		// Static policy evaluation: devices pointing at the failed
		// edge are unserved.
		served := 0
		staticSum := 0.0
		for i, j := range static.Of {
			if c := in.CostAt(i, j); !math.IsInf(c, 1) {
				staticSum += c
				served++
			}
		}
		staticMean := math.NaN()
		if served > 0 {
			staticMean = staticSum / float64(served)
		}

		gAssign, err := solve(assign.NewGreedy(), in)
		if err != nil {
			return nil, err
		}
		qAssign, err := solve(assign.NewQLearning(xrand.SplitSeed(seed, fmt.Sprintf("q-%d", e))), in)
		if err != nil {
			return nil, err
		}

		greedyCell := "-"
		if gAssign != nil {
			greedyCell = formatFloat(in.MeanCost(gAssign))
		}
		qCell := "-"
		migrations := 0
		if qAssign != nil {
			qCell = formatFloat(in.MeanCost(qAssign))
			if prevQ != nil {
				for i := range qAssign.Of {
					if qAssign.Of[i] != prevQ.Of[i] {
						migrations++
					}
				}
			}
			prevQ = qAssign
		}
		tab.AddRow(e, staticMean, 100*float64(served)/float64(n), greedyCell, qCell, migrations)

		for _, w := range walkers {
			w.Advance(epochMs)
		}
	}
	return []*Table{tab}, nil
}
