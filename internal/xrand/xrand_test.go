package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSplitSeedStable(t *testing.T) {
	if SplitSeed(7, "topology") != SplitSeed(7, "topology") {
		t.Fatal("SplitSeed is not deterministic")
	}
	if SplitSeed(7, "topology") == SplitSeed(7, "workload") {
		t.Fatal("SplitSeed does not separate labels")
	}
	if SplitSeed(7, "topology") == SplitSeed(8, "topology") {
		t.Fatal("SplitSeed does not separate seeds")
	}
}

// TestSplitAdvancesParent pins what Split costs its parent: one Int63
// draw each, so a repeated label gives a new child and every later draw
// from the parent shifts.
func TestSplitAdvancesParent(t *testing.T) {
	parent, ref := New(9), New(9)
	a, b := parent.Split("x"), parent.Split("x")
	wantA, wantB := New(SplitSeed(ref.Int63(), "x")), New(SplitSeed(ref.Int63(), "x"))
	same := true
	for i := 0; i < 10; i++ {
		va, vb := a.Int63(), b.Int63()
		if va != wantA.Int63() || vb != wantB.Int63() {
			t.Fatalf("draw %d: a child is not seeded from the label and the parent's next Int63", i)
		}
		same = same && va == vb
	}
	if same {
		t.Fatal(`two Split("x") calls gave the same child`)
	}
	for i := 0; i < 10; i++ {
		if parent.Int63() != ref.Int63() {
			t.Fatalf("parent draw %d after two splits differs from the reference's", i)
		}
	}
}

func TestNewSplitIndependence(t *testing.T) {
	a := NewSplit(1, "a")
	b := NewSplit(1, "b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("split streams look correlated: %d/100 equal draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) out of range: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(7)
	const rate = 2.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exponential(2) mean = %v, want ~0.5", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestChoiceDistribution(t *testing.T) {
	s := New(5)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("Choice picked zero-weight index %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("Choice ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Choice(%v) did not panic", weights)
				}
			}()
			New(1).Choice(weights)
		}()
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(9)
	for i := 0; i < 1000; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(2)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfUniformWhenSkewZero(t *testing.T) {
	z := NewZipf(4, 0)
	for i := 0; i < 4; i++ {
		if math.Abs(z.Prob(i)-0.25) > 1e-12 {
			t.Fatalf("Prob(%d) = %v, want 0.25", i, z.Prob(i))
		}
	}
}

func TestZipfSkewFavorsLowRanks(t *testing.T) {
	z := NewZipf(100, 1.0)
	if z.Prob(0) <= z.Prob(50) {
		t.Fatalf("rank 0 (%v) should dominate rank 50 (%v)", z.Prob(0), z.Prob(50))
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(37, 0.8)
	sum := 0.0
	for i := 0; i < 37; i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

// Property: Choice always returns an in-range index with positive weight.
func TestChoiceInRangeQuick(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			weights[i] = float64(r)
			total += weights[i]
		}
		if total == 0 {
			return true
		}
		s := New(seed)
		for i := 0; i < 20; i++ {
			idx := s.Choice(weights)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPermIntoMatchesPerm pins the RNG-stream contract PermInto exists
// for: filling a caller-owned buffer must perform exactly the draws
// Perm(len(p)) performs, so switching a solver from Perm to PermInto
// changes neither its permutations nor any later draw from the source.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		a, b := New(31), New(31)
		p := make([]int, n)
		a.PermInto(p)
		q := b.Perm(n)
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("n=%d: PermInto %v, Perm %v", n, p, q)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: sources diverged after PermInto vs Perm", n)
		}
	}
}
