package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"taccc/internal/assign"
	"taccc/internal/gap"
)

// stripRuntimes zeroes the wall-clock fields, which are the only
// machine-dependent part of an AlgoStat; everything else must be
// bit-identical across worker counts.
func stripRuntimes(stats []AlgoStat) []AlgoStat {
	out := make([]AlgoStat, len(stats))
	copy(out, stats)
	for i := range out {
		out[i].MeanRuntimeMs = 0
		out[i].FeasibleRuntimeMs = 0
		out[i].FeasibleRuntimeCI95 = 0
	}
	return out
}

func TestCompareAlgorithmsWorkersDeterministic(t *testing.T) {
	sc := Scenario{NumIoT: 25, NumEdge: 4, Seed: 11}
	algos := []string{"random", "greedy", "local-search", "qlearning"}
	want, err := CompareAlgorithmsWorkers(sc, algos, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := CompareAlgorithmsWorkers(sc, algos, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripRuntimes(got), stripRuntimes(want)) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v",
				workers, stripRuntimes(got), stripRuntimes(want))
		}
	}
	// The all-cores default must agree too.
	got, err := CompareAlgorithmsWorkers(sc, algos, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripRuntimes(got), stripRuntimes(want)) {
		t.Fatal("all-cores CompareAlgorithmsWorkers diverged from sequential")
	}
}

// brokenAssigner fails every solve with a non-infeasible error.
type brokenAssigner struct{}

func (brokenAssigner) Name() string { return "broken" }
func (brokenAssigner) Assign(*gap.Instance) (*gap.Assignment, error) {
	return nil, fmt.Errorf("broken: induced failure")
}

// flakyAssigner fails odd seeds and delegates even seeds to greedy, so a
// comparison sees a mix of errored and healthy replications.
type flakyAssigner struct{ seed int64 }

func (flakyAssigner) Name() string { return "flaky" }
func (f flakyAssigner) Assign(in *gap.Instance) (*gap.Assignment, error) {
	if f.seed%2 != 0 {
		return nil, fmt.Errorf("flaky: induced failure for seed %d", f.seed)
	}
	return assign.NewGreedy().Assign(in)
}

func TestCompareAlgorithmsRecordsErrorsAndContinues(t *testing.T) {
	reg := assign.NewRegistry()
	reg.Register("broken", func(int64) assign.Assigner { return brokenAssigner{} })
	reg.Register("flaky", func(seed int64) assign.Assigner { return flakyAssigner{seed: seed} })
	sc := Scenario{NumIoT: 20, NumEdge: 4, Seed: 5}
	const reps = 4
	for _, workers := range []int{1, 8} {
		res, err := compareWithRegistry(reg, sc, []string{"broken", "greedy", "flaky"}, reps, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: errored replications aborted the comparison: %v", workers, err)
		}
		byName := map[string]AlgoStat{}
		for _, st := range res {
			byName[st.Name] = st
		}
		if st := byName["broken"]; st.Errors != reps || st.FeasibleRate != 0 {
			t.Fatalf("workers=%d: broken stat = %+v, want Errors=%d FeasibleRate=0", workers, st, reps)
		}
		if st := byName["greedy"]; st.Errors != 0 || st.FeasibleRate != 1 || st.MeanCost <= 0 {
			t.Fatalf("workers=%d: greedy work discarded: %+v", workers, st)
		}
		st := byName["flaky"]
		if st.Errors == 0 || st.Errors == reps {
			t.Fatalf("workers=%d: flaky should mix errors and successes, got %+v", workers, st)
		}
		if st.Errors+int(st.FeasibleRate*reps+0.5) != reps {
			t.Fatalf("workers=%d: flaky errors (%d) + feasible don't cover %d reps: %+v",
				workers, st.Errors, reps, st)
		}
	}
}

func TestCompareAlgorithmsRuntimePopulations(t *testing.T) {
	reg := assign.NewRegistry()
	reg.Register("flaky", func(seed int64) assign.Assigner { return flakyAssigner{seed: seed} })
	sc := Scenario{NumIoT: 20, NumEdge: 4, Seed: 5}
	res, err := compareWithRegistry(reg, sc, []string{"greedy", "flaky"}, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res {
		if st.MeanRuntimeMs <= 0 {
			t.Fatalf("%s: MeanRuntimeMs not recorded: %+v", st.Name, st)
		}
		if st.FeasibleRate > 0 && st.FeasibleRuntimeMs <= 0 {
			t.Fatalf("%s: feasible reps but FeasibleRuntimeMs empty: %+v", st.Name, st)
		}
	}
}

func TestCompareAlgorithmsUnknownNameStillErrors(t *testing.T) {
	sc := Scenario{NumIoT: 10, NumEdge: 2, Seed: 1}
	if _, err := CompareAlgorithmsWorkers(sc, []string{"greedy", "bogus"}, 2, 8); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	specs := []Spec{mustSpec(t, "F1"), mustSpec(t, "F6")}
	seq := RunAll(specs, Options{Quick: true, Reps: 1, Seed: 9, Workers: 1})
	con := RunAll(specs, Options{Quick: true, Reps: 1, Seed: 9, Workers: 8})
	if len(seq) != len(specs) || len(con) != len(specs) {
		t.Fatalf("result counts: %d, %d", len(seq), len(con))
	}
	for i := range specs {
		if seq[i].Err != nil || con[i].Err != nil {
			t.Fatalf("spec %s failed: %v / %v", specs[i].ID, seq[i].Err, con[i].Err)
		}
		if seq[i].Spec.ID != specs[i].ID || con[i].Spec.ID != specs[i].ID {
			t.Fatalf("result %d out of spec order", i)
		}
		for j := range seq[i].Tables {
			a, b := seq[i].Tables[j].CSV(), con[i].Tables[j].CSV()
			if a != b {
				t.Fatalf("spec %s table %d differs between workers=1 and workers=8:\n%s\nvs\n%s",
					specs[i].ID, j, a, b)
			}
		}
	}
}

func TestRunAllRecordsPerSpecFailure(t *testing.T) {
	boom := errors.New("spec failure")
	specs := []Spec{
		{ID: "OK", Run: func(Options) ([]*Table, error) {
			tab := &Table{ID: "OK", Header: []string{"x"}}
			tab.AddRow(1)
			return []*Table{tab}, nil
		}},
		{ID: "BAD", Run: func(Options) ([]*Table, error) { return nil, boom }},
	}
	res := RunAll(specs, Options{Workers: 4})
	if res[0].Err != nil || len(res[0].Tables) != 1 {
		t.Fatalf("healthy spec lost: %+v", res[0])
	}
	if !errors.Is(res[1].Err, boom) {
		t.Fatalf("failure not recorded: %+v", res[1])
	}
}

func mustSpec(t *testing.T, id string) Spec {
	t.Helper()
	s, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
