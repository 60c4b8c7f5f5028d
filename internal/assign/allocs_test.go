package assign

import (
	"runtime"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/xrand"
)

// allocsPerAssign measures the average heap allocations of one full solve
// with a freshly constructed assigner (construction cost is iteration-
// independent, so it cancels in the scaling comparison below).
func allocsPerAssign(t *testing.T, mk func() Assigner, in *gap.Instance) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	return testing.AllocsPerRun(3, func() {
		if _, err := mk().Assign(in); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMetaheuristicAllocsDoNotScaleWithIters pins the steady-state
// allocation-free contract of the Evaluator-based inner loops: a default
// tabu or LNS solve must allocate fewer times than it iterates — every
// per-iteration buffer (candidate lists, the destroy permutation, the
// reinserter's pending set) is reused, so the per-solve total is pure
// setup and one allocation per iteration would already break the bound.
func TestMetaheuristicAllocsDoNotScaleWithIters(t *testing.T) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 40, 5, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() Assigner
	}{
		{"tabu", func() Assigner { return NewTabuSearch(42) }},
		{"lns", func() Assigner { return NewLNS(42) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := allocsPerAssign(t, tc.mk, in)
			iters := 0
			a := tc.mk()
			a.(ProgressReporter).SetProgress(obs.ProgressFunc(func(obs.IterEvent) { iters++ }))
			if _, err := a.Assign(in); err != nil {
				t.Fatal(err)
			}
			if allocs >= float64(iters) {
				t.Fatalf("a default solve allocates %.0f times over %d iterations", allocs, iters)
			}
		})
	}
}

// TestRandomAllocsDoNotScaleWithDevices pins Random's per-device loop at
// zero allocations: the feasible edges of every device are collected in
// one reused buffer, so a solve allocates 11 times at 40 and at 400
// devices alike (172 and 1612 times with a fresh slice per device).
func TestRandomAllocsDoNotScaleWithDevices(t *testing.T) {
	for _, n := range []int{40, 400} {
		in, err := gap.Synthetic(gap.SyntheticUniform, n, 5, 0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := allocsPerAssign(t, func() Assigner { return NewRandom(42) }, in); allocs != 11 {
			t.Errorf("a %d-device random solve allocates %.0f times, want 11", n, allocs)
		}
	}
}

// TestTracingOffAddsZeroAllocs extends the allocs pins to the phase-
// tracing plane: a solver with tracing detached (WithPhases(a, nil) —
// the default state every untraced caller is in) must allocate exactly
// as much as one that never heard of phases. The nil-phase fast path is
// a pointer check, never a span or attr map.
func TestTracingOffAddsZeroAllocs(t *testing.T) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 40, 5, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func() Assigner
	}{
		{"tabu", func() Assigner { return NewTabuSearch(42) }},
		{"lns", func() Assigner { return NewLNS(42) }},
		{"local-search", func() Assigner { return NewLocalSearch(42) }},
		{"minmax", func() Assigner { return NewMinMax(42) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := allocsPerAssign(t, tc.mk, in)
			detached := allocsPerAssign(t, func() Assigner {
				a := tc.mk()
				WithPhases(a, nil)
				return a
			}, in)
			// Identical would be ideal; a slack of 2 absorbs
			// AllocsPerRun's runtime jitter (GC, map growth).
			if detached > plain+2 {
				t.Fatalf("tracing-off solve allocates %.0f, plain solve %.0f — nil phases must be free", detached, plain)
			}
		})
	}
}

// TestRolloutAllocFree pins the allocation-free lookup: once the Q table
// holds every state an exploitation rollout visits, a second rollout
// allocates nothing — the table hashes and compares the MDP's key words
// in place, and the greedy action walks the MDP's candidate order.
func TestRolloutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	in, err := gap.Synthetic(gap.SyntheticUniform, 120, 12, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer("qlearning", in, RLParams{}, xrand.New(1))
	tr.prime()
	if _, ok := tr.rollout(); !ok {
		t.Fatal("rollout found no feasible placement")
	}
	if allocs := testing.AllocsPerRun(5, func() { tr.rollout() }); allocs != 0 {
		t.Fatalf("a rollout over a filled Q table allocates %.0f times, want 0", allocs)
	}
}

// TestRLStepsAllocFree pins the RL assigners' allocation-free steps: a
// new state's row lands in a Q-table chunk allocated for thousands of
// rows, and every per-step buffer (n-step's trajectory included) is
// reused, so quadrupling the episodes adds only the table's few new
// chunks and index growths, far fewer than one allocation per added
// episode (each of which takes 120 steps).
func TestRLStepsAllocFree(t *testing.T) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 120, 12, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"qlearning", "sarsa", "expected-sarsa", "double-qlearning", "nstep-qlearning"} {
		t.Run(algo, func(t *testing.T) {
			mk := func(episodes int) func() Assigner {
				return func() Assigner { return newLearner(algo, 42, RLParams{Episodes: episodes}) }
			}
			small := allocsPerAssign(t, mk(100), in)
			big := allocsPerAssign(t, mk(400), in)
			if big-small >= 300 {
				t.Fatalf("allocs grew with episodes: %.0f at 100 episodes, %.0f at 400", small, big)
			}
		})
	}
}

// TestBanditStepAllocFree pins the bandit's step at zero allocations: the
// feasible arms and the untried ones among them both live in buffers
// reused across steps, so even a step that still has untried arms to
// choose from allocates nothing.
func TestBanditStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	in, err := gap.Synthetic(gap.SyntheticUniform, 120, 12, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer("bandit", in, RLParams{LoadLevels: 1}, xrand.New(1))
	tr.env.reset()
	counts, sums := make([]float64, in.M()), make([]float64, in.M())
	var feasible, untried []int
	step := func() {
		feasible = tr.env.feasibleActions(feasible)
		_, untried = ucbPick(counts, sums, 0, feasible, untried, tr.src)
	}
	step()
	if len(untried) == 0 {
		t.Fatal("no untried arm to pick from")
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a bandit step allocates %.0f times, want 0", allocs)
	}
}

// TestBanditSolveBytes pins what a bandit solve builds: its per-position
// arm statistics and the MDP's episode state, but none of the Q-row
// seeds (init rows, candidate order) that only Q-table assigners read.
// A 300×20 solve allocated 219,880 B while it still built them.
func TestBanditSolveBytes(t *testing.T) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 300, 20, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 136680
	got := bytesPerRun(t, 5, func() {
		if _, err := NewBandit(1).Assign(in); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Fatalf("a 300×20 bandit solve allocates %d B, want at most %d", got, bound)
	}
}

// bytesPerRun measures the mean heap bytes one call of f allocates, the
// byte-count counterpart of testing.AllocsPerRun (one warm-up call, then
// the mean over runs, at GOMAXPROCS 1).
func bytesPerRun(t *testing.T, runs int, f func()) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are perturbed by race-detector shadow allocations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestQLearningSmallSolveBytes pins the Q table's footprint on a small
// instance, whose states repeat: a 12×3 solve visits about 300 states, so
// a table that reserves room for thousands of rows up front would show
// here. The bound is what the solve allocated with a string-keyed map
// table, 41,480 B.
func TestQLearningSmallSolveBytes(t *testing.T) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 12, 3, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 41480
	got := bytesPerRun(t, 20, func() {
		if _, err := NewQLearning(1).Assign(in); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Fatalf("a 12×3 Q-learning solve allocates %d B, want at most %d", got, bound)
	}
}

// TestQLearningTableBytes pins the implicit Q rows and packed state keys
// on an instance whose states rarely repeat: a 400×40 solve creates rows
// that almost all keep their step's init vector but one action, so a
// table that stored m values per row would allocate about 60 MB here,
// and one that keyed rows by a byte per edge about 13.5 MB.
func TestQLearningTableBytes(t *testing.T) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 400, 40, 0.85, 7)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 12 << 20
	got := bytesPerRun(t, 1, func() {
		if _, err := NewQLearning(1).Assign(in); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Fatalf("a 400×40 Q-learning solve allocates %d B, want at most %d", got, bound)
	}
}

// BenchmarkTabuTracingOff is the CI-visible form of the zero-overhead
// claim: run with -benchmem and compare against BenchmarkTabuPlain —
// allocs/op must match.
func BenchmarkTabuTracingOff(b *testing.B) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 40, 5, 0.85, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := NewTabuSearch(42)
		WithPhases(ts, nil)
		if _, err := ts.Assign(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTabuPlain is the baseline for BenchmarkTabuTracingOff.
func BenchmarkTabuPlain(b *testing.B) {
	in, err := gap.Synthetic(gap.SyntheticUniform, 40, 5, 0.85, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := NewTabuSearch(42)
		if _, err := ts.Assign(in); err != nil {
			b.Fatal(err)
		}
	}
}
