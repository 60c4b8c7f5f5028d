package assign

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// mustSynthetic builds a synthetic instance or fails the test.
func mustSynthetic(t *testing.T, kind gap.SyntheticKind, n, m int, rho float64, seed int64) *gap.Instance {
	t.Helper()
	in, err := gap.Synthetic(kind, n, m, rho, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// mustInstance builds an instance from nested matrices or fails the test.
func mustInstance(t *testing.T, cost, weight [][]float64, capacity []float64) *gap.Instance {
	t.Helper()
	in, err := gap.NewInstance(cost, weight, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// infeasibleInstance has weights that exceed every capacity.
func infeasibleInstance(t *testing.T) *gap.Instance {
	t.Helper()
	return mustInstance(t,
		[][]float64{{1, 2}, {3, 4}, {5, 6}},
		[][]float64{{10, 10}, {10, 10}, {10, 10}},
		[]float64{5, 5},
	)
}

func TestRegistryListsAllAlgorithms(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	want := []string{
		"random", "round-robin", "first-fit", "greedy", "regret-greedy",
		"local-search", "tabu", "lns", "lagrangian", "lp-rounding",
		"bandit", "sarsa", "expected-sarsa", "double-qlearning",
		"nstep-qlearning", "qlearning", "minmax",
	}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, err := r.New("nope", 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRegistryRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	before := len(r.Names())
	r.Register("greedy", func(int64) Assigner { return NewGreedy() })
	if len(r.Names()) != before {
		t.Fatal("re-registering a name grew the registry")
	}
}

// TestAllAlgorithmsFeasibleAndValid is the central contract test: every
// algorithm, on a spread of instances, returns a valid capacity-respecting
// assignment whose name matches its registry key and whose cost is not
// below gap.LowerBound. The spread ends with degenerate shapes: a single
// edge packed exactly full, a single device, and a device with one
// reachable edge.
func TestAllAlgorithmsFeasibleAndValid(t *testing.T) {
	r := NewRegistry()
	inf := math.Inf(1)
	instances := []*gap.Instance{
		mustSynthetic(t, gap.SyntheticUniform, 20, 4, 0.5, 1),
		mustSynthetic(t, gap.SyntheticUniform, 30, 5, 0.8, 2),
		mustSynthetic(t, gap.SyntheticCorrelated, 25, 4, 0.7, 3),
		mustSynthetic(t, gap.SyntheticCorrelated, 15, 3, 0.75, 4),
		mustInstance(t, [][]float64{{1}, {2}, {3}}, [][]float64{{1}, {1}, {1}}, []float64{3}),
		mustInstance(t, [][]float64{{4, 2, 3}}, [][]float64{{1, 1, 1}}, []float64{1, 1, 1}),
		mustInstance(t,
			[][]float64{{inf, 2, inf}, {1, 2, 3}, {2, 1, 3}},
			[][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
			[]float64{2, 2, 2}),
	}
	for _, name := range r.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := r.New(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			if a.Name() != name {
				t.Fatalf("Name() = %q, registry key %q", a.Name(), name)
			}
			for k, in := range instances {
				got, err := a.Assign(in)
				if err != nil {
					t.Fatalf("instance %d: %v", k, err)
				}
				if len(got.Of) != in.N() {
					t.Fatalf("instance %d: assignment length %d", k, len(got.Of))
				}
				if !in.Feasible(got) {
					t.Fatalf("instance %d: infeasible result, violations %v", k, in.Violations(got))
				}
				if c, lb := in.TotalCost(got), gap.LowerBound(in); lb > c+1e-9*math.Max(1, c) {
					t.Fatalf("instance %d: cost %v below lower bound %v", k, c, lb)
				}
			}
		})
	}
}

// TestAllAlgorithmsDeterministic: same seed, same result.
func TestAllAlgorithmsDeterministic(t *testing.T) {
	r := NewRegistry()
	in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.75, 9)
	for _, name := range r.Names() {
		a1, err := r.New(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := r.New(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		g1, err := a1.Assign(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := a2.Assign(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range g1.Of {
			if g1.Of[i] != g2.Of[i] {
				t.Fatalf("%s: nondeterministic at device %d", name, i)
			}
		}
	}
}

// TestAllAlgorithmsReportInfeasible: every algorithm signals ErrInfeasible
// on an impossible instance rather than returning an overloaded result.
// The impossible instances are: weights over every capacity, a stranded
// device (no reachable edge), every capacity zero, and a single edge over
// capacity.
func TestAllAlgorithmsReportInfeasible(t *testing.T) {
	r := NewRegistry()
	inf := math.Inf(1)
	ones := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	instances := []*gap.Instance{
		infeasibleInstance(t),
		mustInstance(t, [][]float64{{1, 2}, {inf, inf}, {3, 1}}, ones, []float64{5, 5}),
		mustInstance(t, [][]float64{{1, 2}, {2, 1}, {3, 3}}, ones, []float64{0, 0}),
		mustInstance(t, [][]float64{{1}, {2}, {3}}, [][]float64{{2}, {2}, {2}}, []float64{5}),
	}
	for _, name := range r.Names() {
		for k, in := range instances {
			a, err := r.New(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Assign(in); !errors.Is(err, gap.ErrInfeasible) {
				t.Errorf("%s, instance %d: want ErrInfeasible, got %v", name, k, err)
			}
		}
	}
}

func TestGreedyPrefersCheapEdges(t *testing.T) {
	// Ample capacity: greedy must give every device its min-cost edge.
	in, err := gap.NewInstance(
		[][]float64{{5, 1}, {1, 5}, {2, 3}},
		[][]float64{{1, 1}, {1, 1}, {1, 1}},
		[]float64{100, 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGreedy().Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 0}
	for i := range want {
		if a.Of[i] != want[i] {
			t.Fatalf("Of = %v, want %v", a.Of, want)
		}
	}
	rowMin := 0.0
	for i := 0; i < in.N(); i++ {
		rowMin += slices.Min(in.CostRow(i))
	}
	if in.TotalCost(a) != rowMin {
		t.Fatal("with slack capacity greedy must hit the row-min bound")
	}
}

func TestGreedyRespectsCapacityByDetour(t *testing.T) {
	// Both devices prefer edge 0 but only one fits.
	in, err := gap.NewInstance(
		[][]float64{{1, 10}, {1, 2}},
		[][]float64{{3, 3}, {3, 3}},
		[]float64{3, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGreedy().Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(a) {
		t.Fatal("greedy overloaded an edge")
	}
	// Total must be 1 + 2 = 3 (device 0 takes edge 0 first in
	// heaviest-first order; equal weights keep index order).
	if got := in.TotalCost(a); got != 3 {
		t.Fatalf("TotalCost = %v, want 3", got)
	}
}

func TestLocalSearchNeverWorseThanGreedy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 30, 5, 0.8, seed)
		g, gerr := NewGreedy().Assign(in)
		ls, lerr := NewLocalSearch(seed).Assign(in)
		if gerr != nil || lerr != nil {
			// If greedy fails, local search may still succeed via
			// fallback starts; only compare when both succeed.
			continue
		}
		if in.TotalCost(ls) > in.TotalCost(g)+1e-9 {
			t.Fatalf("seed %d: local search (%v) worse than greedy (%v)",
				seed, in.TotalCost(ls), in.TotalCost(g))
		}
	}
}

func TestMetaheuristicsBeatRandomOnAverage(t *testing.T) {
	algos := map[string]Factory{
		"local-search": func(s int64) Assigner { return NewLocalSearch(s) },
		"lagrangian":   func(s int64) Assigner { return NewLagrangian(s) },
		"qlearning":    func(s int64) Assigner { return NewQLearning(s) },
		"sarsa":        func(s int64) Assigner { return NewSARSA(s) },
		"bandit":       func(s int64) Assigner { return NewBandit(s) },
	}
	const seeds = 5
	for name, factory := range algos {
		var algoTotal, randTotal float64
		count := 0
		for seed := int64(0); seed < seeds; seed++ {
			in := mustSynthetic(t, gap.SyntheticUniform, 25, 5, 0.7, seed)
			a, err := factory(seed).Assign(in)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			r, err := NewRandom(seed).Assign(in)
			if err != nil {
				t.Fatalf("random seed %d: %v", seed, err)
			}
			algoTotal += in.TotalCost(a)
			randTotal += in.TotalCost(r)
			count++
		}
		if count > 0 && algoTotal >= randTotal {
			t.Errorf("%s: mean cost %.2f not better than random %.2f",
				name, algoTotal/float64(count), randTotal/float64(count))
		}
	}
}

func TestQLearningNearOptimalOnSmallInstances(t *testing.T) {
	// The abstract claims near-optimal assignments; check the gap to
	// branch-and-bound on instances small enough to solve exactly.
	var gapSum, optSum float64
	for seed := int64(0); seed < 6; seed++ {
		in := mustSynthetic(t, gap.SyntheticCorrelated, 10, 3, 0.8, seed)
		res, err := gap.BranchAndBound(in)
		if errors.Is(err, gap.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewQLearning(seed).Assign(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c := in.TotalCost(a)
		if c < res.Cost-1e-9 {
			t.Fatalf("seed %d: heuristic beat the proven optimum: %v < %v", seed, c, res.Cost)
		}
		gapSum += c - res.Cost
		optSum += res.Cost
	}
	if optSum == 0 {
		t.Skip("all instances infeasible")
	}
	relGap := gapSum / optSum
	if relGap > 0.05 {
		t.Fatalf("Q-learning mean optimality gap %.1f%% exceeds 5%%", 100*relGap)
	}
}

func TestQLearningTraceMonotone(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticUniform, 20, 4, 0.7, 3)
	q := NewQLearning(3)
	curve := recordCurve(q)
	if _, err := q.Assign(in); err != nil {
		t.Fatal(err)
	}
	trace := *curve
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1]+1e-12 {
			t.Fatalf("trace not monotone at %d: %v > %v", i, trace[i], trace[i-1])
		}
	}
	if math.IsInf(trace[len(trace)-1], 1) {
		t.Fatal("trace never became feasible")
	}
}

func TestQLearningHandlesTightCapacity(t *testing.T) {
	// rho = 1.0: a perfect packing is required; greedy often fails here,
	// the RL assigner must still find feasible assignments by avoiding
	// dead ends. Weights are uniform per device so packing exists.
	in, err := gap.NewInstance(
		[][]float64{
			{1, 4}, {1, 4}, {2, 3}, {2, 3},
		},
		[][]float64{
			{2, 2}, {2, 2}, {2, 2}, {2, 2},
		},
		[]float64{4, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewQLearning(1).Assign(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(a) {
		t.Fatal("infeasible under tight capacity")
	}
	loads := in.Loads(a)
	if loads[0] != 4 || loads[1] != 4 {
		t.Fatalf("perfect packing required, got loads %v", loads)
	}
}

func TestRLParamsDefaults(t *testing.T) {
	p := RLParams{}.withDefaults()
	if p.Episodes != 400 || p.LoadLevels != 4 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	p2 := RLParams{Episodes: 10, LoadLevels: 2}.withDefaults()
	if p2.Episodes != 10 || p2.LoadLevels != 2 {
		t.Fatalf("explicit values overridden: %+v", p2)
	}
}

// rlParams returns the RLParams of a Q-table assigner.
func rlParams(t *testing.T, a Assigner) *RLParams {
	t.Helper()
	switch a := a.(type) {
	case *QLearning:
		return &a.Params
	case *SARSA:
		return &a.Params
	case *ExpectedSARSA:
		return &a.Params
	case *DoubleQLearning:
		return &a.Params
	case *NStepQLearning:
		return &a.Params
	}
	t.Fatalf("%s has no RLParams", a.Name())
	return nil
}

// TestQLearningAblationSwitches requires every Q-table assigner to honour
// every RLParams ablation switch: each switch set alone changes the
// assignment on a fixed instance, and every ablated run stays feasible.
// NoCostSeeding and UniformExploration are compared with warm start off,
// since a winning regret-greedy warm start would hide what training
// learned.
func TestQLearningAblationSwitches(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticCorrelated, 20, 4, 0.85, 4)
	reg := NewRegistry()
	for _, name := range []string{"qlearning", "sarsa", "expected-sarsa", "double-qlearning", "nstep-qlearning"} {
		solve := func(mut func(*RLParams)) string {
			a, err := reg.New(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			mut(rlParams(t, a))
			got, err := a.Assign(in)
			if err != nil {
				t.Fatalf("%s: ablated variant failed: %v", name, err)
			}
			if !in.Feasible(got) {
				t.Fatalf("%s: ablated variant produced infeasible result", name)
			}
			return hashOf(got.Of)
		}
		noWarm := func(p *RLParams) { p.NoWarmStart = true }
		for _, c := range []struct {
			name      string
			base, mut func(*RLParams)
		}{
			{"NoWarmStart", func(*RLParams) {}, noWarm},
			{"NoCostSeeding", noWarm, func(p *RLParams) { p.NoWarmStart = true; p.NoCostSeeding = true }},
			{"UniformExploration", noWarm, func(p *RLParams) { p.NoWarmStart = true; p.UniformExploration = true }},
		} {
			if solve(c.base) == solve(c.mut) {
				t.Errorf("%s ignores %s: same assignment with it on and off", name, c.name)
			}
		}
		solve(func(p *RLParams) { p.NoCostSeeding = true; p.NoWarmStart = true; p.UniformExploration = true })
	}
}

// packLevels packs levels bit by bit, width bits each, level j at bits
// j*width.. of a little-endian string of 64-bit words: the layout of the
// MDP's state key, written out independently of it.
func packLevels(levels []int, width int) []uint64 {
	key := make([]uint64, (len(levels)*width+63)/64)
	for j, level := range levels {
		for b := 0; b < width; b++ {
			if pos := j*width + b; level>>b&1 == 1 {
				key[pos/64] |= 1 << (pos % 64)
			}
		}
	}
	return key
}

// keyFromLoads requantizes every edge's load from scratch and packs the
// levels; the MDP's incrementally kept key must equal it.
func keyFromLoads(m *mdp) []uint64 {
	levels := make([]int, len(m.loads))
	for j, load := range m.loads {
		levels[j] = m.levels - 1
		if m.in.Capacity[j] > 0 {
			u := load / m.in.Capacity[j]
			if u >= 1 {
				u = 1 - 1e-9
			}
			levels[j] = int(u * float64(m.levels))
		}
	}
	return packLevels(levels, m.width)
}

// TestMDPStateKey checks the state the Q table is keyed by, (step, key
// words): a fresh episode is step 0 with every edge at the lowest level,
// each level takes the fewest bits that hold LoadLevels values, and
// after every take and reset the key equals the levels requantized from
// loads and packed.
func TestMDPStateKey(t *testing.T) {
	in := mustSynthetic(t, gap.SyntheticUniform, 4, 3, 0.5, 1)
	env := newMDP(in, 4)
	env.reset()
	if env.step != 0 || !slices.Equal(env.key, []uint64{0}) {
		t.Fatalf("initial state (%d, %x), want (0, [0])", env.step, env.key)
	}
	var buf []int
	buf = env.feasibleActions(buf)
	if len(buf) == 0 {
		t.Fatal("no feasible actions in fresh MDP")
	}
	env.take(buf[0])
	if env.step != 1 {
		t.Fatalf("step %d after one take, want 1", env.step)
	}

	// Random episodes, one of whose edges has zero capacity and whose
	// placements ignore capacity so that levels saturate: after every
	// reset and every take the incrementally kept key must equal the
	// levels requantized from loads. The edge counts put a level field
	// across a word boundary: 22 edges at 3 bits, and 33 and 65 at 2.
	src := xrand.New(9)
	for _, edges := range []int{5, 22, 33, 65} {
		base := mustSynthetic(t, gap.SyntheticUniform, 40, edges, 0.9, 3)
		capacity := append([]float64(nil), base.Capacity...)
		capacity[2] = 0
		cost, weight := matrices(base)
		zeroCap, err := gap.NewInstance(cost, weight, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for _, lw := range [][2]int{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {8, 3}} {
			levels, width := lw[0], lw[1]
			env := newMDP(zeroCap, levels)
			if env.width != width || len(env.key) != (edges*width+63)/64 {
				t.Fatalf("%d edges at %d levels: %d bits per edge in %d words, want %d bits", edges, levels, env.width, len(env.key), width)
			}
			for ep := 0; ep < 5; ep++ {
				env.reset()
				for {
					if got, want := env.key, keyFromLoads(env); !slices.Equal(got, want) {
						t.Fatalf("%d edges, levels %d, episode %d, step %d: key %x, from loads %x", edges, levels, ep, env.step, got, want)
					}
					if env.done() {
						break
					}
					env.take(src.Intn(edges))
				}
			}
		}
	}
}

func TestRepairFixesOverload(t *testing.T) {
	in, err := gap.NewInstance(
		[][]float64{{1, 5}, {1, 5}, {1, 5}},
		[][]float64{{2, 2}, {2, 2}, {2, 2}},
		[]float64{4, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	of := []int{0, 0, 0} // load 6 on cap 4
	src := newTestSource()
	if !newRepairState(in).repair(in, of, src) {
		t.Fatal("repair failed on repairable overload")
	}
	a := &gap.Assignment{Of: of}
	if !in.Feasible(a) {
		t.Fatalf("repair left infeasible: %v", of)
	}
}

func TestRepairReportsImpossible(t *testing.T) {
	in := infeasibleInstance(t)
	of := []int{0, 0, 0}
	if newRepairState(in).repair(in, of, newTestSource()) {
		t.Fatal("repair claimed success on impossible instance")
	}
}

// Property (the Assigner contract): every algorithm either returns a
// feasible assignment or an error wrapping gap.ErrInfeasible — never an
// overloaded result and never an unexplained failure.
func TestAssignerContractQuick(t *testing.T) {
	reg := NewRegistry()
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw%6) + 2
		in, err := gap.Synthetic(gap.SyntheticUniform, n, m, 0.6, seed)
		if err != nil {
			return false
		}
		for _, name := range reg.Names() {
			a, err := reg.New(name, seed)
			if err != nil {
				return false
			}
			got, err := a.Assign(in)
			if err != nil {
				if !errors.Is(err, gap.ErrInfeasible) {
					return false
				}
				continue
			}
			if !in.Feasible(got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
