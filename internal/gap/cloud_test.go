package gap

import (
	"math"
	"testing"
)

func TestWithCloudMakesInfeasibleSolvable(t *testing.T) {
	// Base instance is impossible: every weight exceeds every capacity.
	base, err := NewInstance(
		[][]float64{{1, 2}, {3, 4}},
		[][]float64{{10, 10}, {10, 10}},
		[]float64{5, 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bruteForce(base); err == nil {
		t.Fatal("base instance unexpectedly feasible")
	}
	withCloud, err := WithCloud(base, 80)
	if err != nil {
		t.Fatal(err)
	}
	if withCloud.M() != 3 {
		t.Fatalf("M = %d, want 3", withCloud.M())
	}
	a, err := bruteForce(withCloud)
	if err != nil {
		t.Fatal(err)
	}
	count, frac, err := CloudOffload(withCloud, a)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 || frac != 1 {
		t.Fatalf("offload = %d (%.2f), want everything on the cloud", count, frac)
	}
	// Cost is two cloud round trips.
	if got := withCloud.TotalCost(a); got != 160 {
		t.Fatalf("TotalCost = %v, want 160", got)
	}
}

func TestWithCloudPrefersEdgesWhenTheyFit(t *testing.T) {
	base, err := Synthetic(SyntheticUniform, 15, 3, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	withCloud, err := WithCloud(base, 500) // cloud far worse than any edge
	if err != nil {
		t.Fatal(err)
	}
	res, err := BranchAndBound(withCloud)
	if err != nil {
		t.Fatal(err)
	}
	count, _, err := CloudOffload(withCloud, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("%d devices spilled to the cloud despite edge slack", count)
	}
}

func TestWithCloudValidation(t *testing.T) {
	base, err := Synthetic(SyntheticUniform, 4, 2, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := WithCloud(base, d); err == nil {
			t.Errorf("cloud delay %v accepted", d)
		}
	}
	a := &Assignment{Of: []int{0}}
	if _, _, err := CloudOffload(base, a); err == nil {
		t.Error("short assignment accepted")
	}
}
