package taccc_test

import (
	"errors"
	"testing"

	taccc "taccc"
)

// TestPublicAPIEndToEnd exercises the documented flow: scenario -> solve ->
// inspect -> simulate, entirely through the facade.
func TestPublicAPIEndToEnd(t *testing.T) {
	built, err := taccc.Scenario{NumIoT: 40, NumEdge: 5, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := taccc.NewQLearning(3)
	a, err := q.Assign(built.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if !built.Instance.Feasible(a) {
		t.Fatal("public API returned infeasible assignment")
	}
	if built.Instance.MeanCost(a) <= 0 {
		t.Fatal("non-positive mean delay")
	}
	if lb := taccc.LowerBound(built.Instance); built.Instance.TotalCost(a) < lb-1e-9 {
		t.Fatalf("cost %v below lower bound %v", built.Instance.TotalCost(a), lb)
	}

	sim, err := taccc.NewSimulator(taccc.SimConfig{
		UplinkMs:    built.Delay.DelayMs,
		Devices:     built.Devices,
		ServiceRate: built.Capacity,
		Assignment:  a.Of,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("simulation completed no requests")
	}
}

func TestPublicManualInstance(t *testing.T) {
	in, err := taccc.NewInstance(
		[][]float64{{1, 9}, {9, 1}},
		[][]float64{{1, 1}, {1, 1}},
		[]float64{1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := taccc.NewGreedy().Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if in.TotalCost(a) != 2 {
		t.Fatalf("TotalCost = %v, want 2", in.TotalCost(a))
	}
	res, err := taccc.BranchAndBound(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 || !res.Proven {
		t.Fatalf("B&B = %+v", res)
	}
}

func TestPublicRegistryAndErrInfeasible(t *testing.T) {
	reg := taccc.NewAlgorithmRegistry()
	if len(reg.Names()) < 10 {
		t.Fatalf("registry has only %d algorithms", len(reg.Names()))
	}
	in, err := taccc.NewInstance(
		[][]float64{{1}},
		[][]float64{{5}},
		[]float64{1},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := taccc.NewGreedy()
	if _, err := g.Assign(in); !errors.Is(err, taccc.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestPublicTopologyFlow(t *testing.T) {
	g, err := taccc.GenerateTopology(taccc.FamilyGrid, taccc.TopologyConfig{
		NumIoT: 15, NumEdge: 3, NumGateways: 9, Seed: 2,
	}, taccc.PlaceHotspot)
	if err != nil {
		t.Fatal(err)
	}
	dm := taccc.NewDelayMatrix(g, taccc.PayloadCost(8))
	devs, err := taccc.GenerateDevices(15, taccc.DefaultProfile(2))
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, 3)
	per := taccc.TotalLoad(devs) / 0.5 / 3
	for _, d := range devs {
		// A server must at least fit the single heaviest workload.
		if l := d.Load() * 1.1; l > per {
			per = l
		}
	}
	for j := range caps {
		caps[j] = per
	}
	in, err := taccc.InstanceFromTopology(dm, devs, caps)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := taccc.NewAlgorithmRegistry().New("local-search", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Assign(in); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExperiments(t *testing.T) {
	specs := taccc.Experiments()
	if len(specs) != 21 {
		t.Fatalf("have %d experiments, want 21", len(specs))
	}
	spec, err := taccc.ExperimentByID("F5")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := spec.Run(taccc.ExperimentOptions{Quick: true, Reps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("experiment produced no data")
	}
	stats, err := taccc.CompareAlgorithmsWorkers(taccc.Scenario{NumIoT: 15, NumEdge: 3, Seed: 1},
		[]string{"greedy", "qlearning"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d stats", len(stats))
	}
}
