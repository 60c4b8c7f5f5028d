package taccc_test

// Facade-level coverage for the parallel execution layer: the workers knobs
// must be reachable from the public API and must never change results —
// only wall-clock time.

import (
	"reflect"
	"testing"

	taccc "taccc"
)

func TestCompareAlgorithmsWorkersFacadeDeterminism(t *testing.T) {
	sc := taccc.Scenario{NumIoT: 20, NumEdge: 4, Seed: 13}
	algos := []string{"greedy", "local-search", "qlearning"}
	seq, err := taccc.CompareAlgorithmsWorkers(sc, algos, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	con, err := taccc.CompareAlgorithmsWorkers(sc, algos, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		seq[i].MeanRuntimeMs, con[i].MeanRuntimeMs = 0, 0
		seq[i].FeasibleRuntimeMs, con[i].FeasibleRuntimeMs = 0, 0
		seq[i].FeasibleRuntimeCI95, con[i].FeasibleRuntimeCI95 = 0, 0
	}
	if !reflect.DeepEqual(seq, con) {
		t.Fatalf("workers=8 diverged:\n%+v\nvs\n%+v", con, seq)
	}
}

func TestTopologyKernelsWorkersFacadeDeterminism(t *testing.T) {
	g, err := taccc.GenerateTopology(taccc.FamilyHierarchical, taccc.TopologyConfig{
		NumIoT: 80, NumEdge: 8, NumGateways: 16, Seed: 2,
	}, taccc.PlaceUniform)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(
		taccc.NewDelayMatrixWorkers(g, taccc.LatencyCost, 8),
		taccc.NewDelayMatrixWorkers(g, taccc.LatencyCost, 1),
	) {
		t.Fatal("DelayMatrix differs between workers=8 and workers=1")
	}
}

func TestRunExperimentsFacade(t *testing.T) {
	spec, err := taccc.ExperimentByID("F6")
	if err != nil {
		t.Fatal(err)
	}
	specs := []taccc.ExperimentSpec{spec}
	seq := taccc.RunExperiments(specs, taccc.ExperimentOptions{Quick: true, Reps: 1, Seed: 5, Workers: 1})
	con := taccc.RunExperiments(specs, taccc.ExperimentOptions{Quick: true, Reps: 1, Seed: 5, Workers: 8})
	if len(seq) != 1 || len(con) != 1 || seq[0].Err != nil || con[0].Err != nil {
		t.Fatalf("unexpected results: %+v / %+v", seq, con)
	}
	if len(seq[0].Tables) == 0 {
		t.Fatal("no tables")
	}
	for i := range seq[0].Tables {
		if seq[0].Tables[i].CSV() != con[0].Tables[i].CSV() {
			t.Fatalf("table %d differs between workers=1 and workers=8", i)
		}
	}
}
