package assign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/obs"
)

// goldenShapes are the instance families the golden determinism test
// sweeps: a comfortable uniform case, a correlated case, a larger tight
// one and a tie-heavy one whose costs are rounded to whole milliseconds
// (so regret ties and regret-greedy cache invalidations are common), each
// at three seeds. The fifth, rounded and wider than the Lagrangian
// candidate table (m > 8), pins the lagrangian assigner where the table
// prunes rows whose costs tie.
var goldenShapes = []struct {
	kind  gap.SyntheticKind
	n, m  int
	rho   float64
	round bool
}{
	{gap.SyntheticUniform, 30, 5, 0.8, false},
	{gap.SyntheticCorrelated, 25, 4, 0.85, false},
	{gap.SyntheticUniform, 60, 8, 0.9, false},
	{gap.SyntheticUniform, 120, 8, 0.98, true},
	{gap.SyntheticUniform, 200, 24, 0.9, true},
}

// roundedCosts rebuilds in with every finite cost rounded to a whole
// millisecond, the tie-heavy variant of a synthetic instance.
func roundedCosts(in *gap.Instance) (*gap.Instance, error) {
	cost, weight := matrices(in)
	for _, row := range cost {
		for j, c := range row {
			row[j] = math.Round(c)
		}
	}
	return gap.NewInstance(cost, weight, in.Capacity)
}

// goldenHashes pins the exact assignment every metaheuristic produces per
// (shape, seed), captured on the pre-Evaluator implementations; the six
// RL assigners' rows were captured before their training loops were
// merged into one trainer, the greedy, regret-greedy and tie-heavy rows
// before regret-greedy's cached rescan and the MDP's incremental state
// key, and the minmax, lp-rounding, first-fit, round-robin and random
// rows before the instance kept its matrices in one row-major store. Hash
// is FNV-64a over the placement vector's entries as little-endian 4-byte
// words; "ERR" marks cells where the solver deterministically reports
// infeasibility. Any diff here means a solver's per-seed arithmetic — not
// just its cost — changed, which is exactly what the incremental-kernel
// contract forbids.
var goldenHashes = []struct {
	shape int
	seed  int64
	algo  string
	hash  string
}{
	{0, 1, "local-search", "b8fececd02e190b0"},
	{0, 1, "tabu", "5a94c0d4246676d4"},
	{0, 1, "lns", "5a94c0d4246676d4"},
	{0, 1, "lagrangian", "5a94c0d4246676d4"},
	{0, 1, "qlearning", "5a94c0d4246676d4"},
	{0, 1, "sarsa", "5a94c0d4246676d4"},
	{0, 1, "expected-sarsa", "5a94c0d4246676d4"},
	{0, 1, "double-qlearning", "5a94c0d4246676d4"},
	{0, 1, "nstep-qlearning", "5a94c0d4246676d4"},
	{0, 1, "bandit", "ca8755168723d160"},
	{0, 2, "local-search", "dbf27d8438714ec7"},
	{0, 2, "tabu", "b8ac6b3c5021ba46"},
	{0, 2, "lns", "b8ac6b3c5021ba46"},
	{0, 2, "lagrangian", "b8ac6b3c5021ba46"},
	{0, 2, "qlearning", "b8ac6b3c5021ba46"},
	{0, 2, "sarsa", "b8ac6b3c5021ba46"},
	{0, 2, "expected-sarsa", "b8ac6b3c5021ba46"},
	{0, 2, "double-qlearning", "b8ac6b3c5021ba46"},
	{0, 2, "nstep-qlearning", "b8ac6b3c5021ba46"},
	{0, 2, "bandit", "b8ac6b3c5021ba46"},
	{0, 3, "local-search", "da4416e23f19f8a2"},
	{0, 3, "tabu", "da4416e23f19f8a2"},
	{0, 3, "lns", "da4416e23f19f8a2"},
	{0, 3, "lagrangian", "02d6e700c9493ca4"},
	{0, 3, "qlearning", "da4416e23f19f8a2"},
	{0, 3, "sarsa", "da4416e23f19f8a2"},
	{0, 3, "expected-sarsa", "da4416e23f19f8a2"},
	{0, 3, "double-qlearning", "da4416e23f19f8a2"},
	{0, 3, "nstep-qlearning", "da4416e23f19f8a2"},
	{0, 3, "bandit", "da4416e23f19f8a2"},
	{1, 1, "local-search", "67abaac9c8d89ae7"},
	{1, 1, "tabu", "f31118b2c4818944"},
	{1, 1, "lns", "d7e151bbaa0355d5"},
	{1, 1, "lagrangian", "c87d28732abbe317"},
	{1, 1, "qlearning", "e47016af67a97cf5"},
	{1, 1, "sarsa", "73bda1fe4d1cef14"},
	{1, 1, "expected-sarsa", "ca4e7b5bdebab076"},
	{1, 1, "double-qlearning", "a5a48165489f4595"},
	{1, 1, "nstep-qlearning", "790684ccd6fbe064"},
	{1, 1, "bandit", "3bea5cb13c9ee5c5"},
	{1, 2, "local-search", "c74705e50bd37be7"},
	{1, 2, "tabu", "69189c99d49f00e6"},
	{1, 2, "lns", "a7055cbb398c9404"},
	{1, 2, "lagrangian", "ERR"},
	{1, 2, "qlearning", "dc311e3b66623167"},
	{1, 2, "sarsa", "610bbe8b18152ce6"},
	{1, 2, "expected-sarsa", "7eb992526183ea27"},
	{1, 2, "double-qlearning", "77c3b75de0f035f6"},
	{1, 2, "nstep-qlearning", "2b6fdc4cf0cf5e37"},
	{1, 2, "bandit", "e495f16dddbb1ab4"},
	{1, 3, "local-search", "cda832038f9e3906"},
	{1, 3, "tabu", "25e9aa5597b2e477"},
	{1, 3, "lns", "910d908b78617915"},
	{1, 3, "lagrangian", "ERR"},
	{1, 3, "qlearning", "6c1bb83a87de0e34"},
	{1, 3, "sarsa", "3d17f271c1377da6"},
	{1, 3, "expected-sarsa", "a71ed79f7eb85514"},
	{1, 3, "double-qlearning", "2aba2446b50c8a27"},
	{1, 3, "nstep-qlearning", "a644113617036fb6"},
	{1, 3, "bandit", "13053e1ae16abc85"},
	{2, 1, "local-search", "621c3cc4c902b391"},
	{2, 1, "tabu", "014197c1ee8f81f7"},
	{2, 1, "lns", "8bb17f2234f72261"},
	{2, 1, "lagrangian", "8bb17f2234f72261"},
	{2, 1, "qlearning", "014197c1ee8f81f7"},
	{2, 1, "sarsa", "014197c1ee8f81f7"},
	{2, 1, "expected-sarsa", "014197c1ee8f81f7"},
	{2, 1, "double-qlearning", "014197c1ee8f81f7"},
	{2, 1, "nstep-qlearning", "014197c1ee8f81f7"},
	{2, 1, "bandit", "51a9a1f90a630867"},
	{2, 2, "local-search", "7831ff3057cfc9d7"},
	{2, 2, "tabu", "ff5154e46a6a2ae0"},
	{2, 2, "lns", "650669b07eb1e197"},
	{2, 2, "lagrangian", "04b90673240a9a26"},
	{2, 2, "qlearning", "650669b07eb1e197"},
	{2, 2, "sarsa", "650669b07eb1e197"},
	{2, 2, "expected-sarsa", "650669b07eb1e197"},
	{2, 2, "double-qlearning", "650669b07eb1e197"},
	{2, 2, "nstep-qlearning", "650669b07eb1e197"},
	{2, 2, "bandit", "e6cb99d4aed5cb76"},
	{2, 3, "local-search", "72370d91a6435a30"},
	{2, 3, "tabu", "d41fb595853a38b1"},
	{2, 3, "lns", "055b1acac105bb42"},
	{2, 3, "lagrangian", "8d56302634d80382"},
	{2, 3, "qlearning", "055b1acac105bb42"},
	{2, 3, "sarsa", "055b1acac105bb42"},
	{2, 3, "expected-sarsa", "055b1acac105bb42"},
	{2, 3, "double-qlearning", "055b1acac105bb42"},
	{2, 3, "nstep-qlearning", "055b1acac105bb42"},
	{2, 3, "bandit", "171b679dcbb75d27"},
	{0, 1, "greedy", "510794fe5e9618c1"},
	{0, 1, "regret-greedy", "5a94c0d4246676d4"},
	{0, 2, "greedy", "dbf27d8438714ec7"},
	{0, 2, "regret-greedy", "b8ac6b3c5021ba46"},
	{0, 3, "greedy", "da4416e23f19f8a2"},
	{0, 3, "regret-greedy", "da4416e23f19f8a2"},
	{1, 1, "greedy", "ERR"},
	{1, 1, "regret-greedy", "ERR"},
	{1, 2, "greedy", "ERR"},
	{1, 2, "regret-greedy", "ERR"},
	{1, 3, "greedy", "ERR"},
	{1, 3, "regret-greedy", "ERR"},
	{2, 1, "greedy", "26bd3fdda7ba3e86"},
	{2, 1, "regret-greedy", "014197c1ee8f81f7"},
	{2, 2, "greedy", "ee099c515ce1f231"},
	{2, 2, "regret-greedy", "650669b07eb1e197"},
	{2, 3, "greedy", "55d738b607eecbd1"},
	{2, 3, "regret-greedy", "055b1acac105bb42"},
	{3, 1, "regret-greedy", "b9ce5742c273e2c1"},
	{3, 1, "qlearning", "b9ce5742c273e2c1"},
	{3, 2, "regret-greedy", "ERR"},
	{3, 2, "qlearning", "72dc877fb6799184"},
	{3, 3, "regret-greedy", "ERR"},
	{3, 3, "qlearning", "52fbbeb9ed1e6460"},
	{0, 1, "minmax", "598a6d387de2b474"},
	{0, 1, "lp-rounding", "5a94c0d4246676d4"},
	{0, 1, "first-fit", "7323d9f19c3857c3"},
	{0, 1, "round-robin", "e7d4a2fcde2916c5"},
	{0, 1, "random", "5eefc36f46c96592"},
	{0, 2, "minmax", "dbf27d8438714ec7"},
	{0, 2, "lp-rounding", "b8ac6b3c5021ba46"},
	{0, 2, "first-fit", "92fc90ae18cbc2e5"},
	{0, 2, "round-robin", "e7d4a2fcde2916c5"},
	{0, 2, "random", "5c8f1c8e5dbb7886"},
	{0, 3, "minmax", "da4416e23f19f8a2"},
	{0, 3, "lp-rounding", "02d6e700c9493ca4"},
	{0, 3, "first-fit", "a1230cc31e5f0c84"},
	{0, 3, "round-robin", "02cfd608bbfe9726"},
	{0, 3, "random", "c9bd3d9c03da5ca0"},
	{1, 1, "minmax", "ea7cbf53796e5996"},
	{1, 1, "lp-rounding", "ERR"},
	{1, 1, "first-fit", "49004e02720c7966"},
	{1, 1, "round-robin", "0851598000a231e4"},
	{1, 1, "random", "f56c8408b8434b54"},
	{1, 2, "minmax", "f4a8712d08cacc97"},
	{1, 2, "lp-rounding", "ERR"},
	{1, 2, "first-fit", "48238b61f7bbdb45"},
	{1, 2, "round-robin", "0705a253b0261d75"},
	{1, 2, "random", "769368f2d4d1abc6"},
	{1, 3, "minmax", "0eaad17b4c048ca4"},
	{1, 3, "lp-rounding", "ERR"},
	{1, 3, "first-fit", "7cd2f5959c23fad7"},
	{1, 3, "round-robin", "670af64b59f060e4"},
	{1, 3, "random", "75d14cc3c0c598c6"},
	{2, 1, "minmax", "014197c1ee8f81f7"},
	{2, 1, "lp-rounding", "911a8866d9a22067"},
	{2, 1, "first-fit", "4ac5ed5a250e8431"},
	{2, 1, "round-robin", "37a8ac79873151a6"},
	{2, 1, "random", "b88d63e9e87b9881"},
	{2, 2, "minmax", "650669b07eb1e197"},
	{2, 2, "lp-rounding", "dae50e1298be9516"},
	{2, 2, "first-fit", "f448bdab32749c52"},
	{2, 2, "round-robin", "0008df927e7badd0"},
	{2, 2, "random", "6f7d46e45a1f3563"},
	{2, 3, "minmax", "055b1acac105bb42"},
	{2, 3, "lp-rounding", "8d56302634d80382"},
	{2, 3, "first-fit", "901c68f65f4a6971"},
	{2, 3, "round-robin", "11d6ff759839f6d2"},
	{2, 3, "random", "a9aabfb98f282197"},
	{3, 1, "minmax", "a3552170be06be33"},
	{3, 1, "lp-rounding", "5135eff6df344857"},
	{3, 1, "first-fit", "68a160bf7ecd2e21"},
	{3, 1, "round-robin", "3b176cbb58202183"},
	{3, 1, "random", "f43995c9eaf26c62"},
	{3, 2, "minmax", "b684bdc9100ef970"},
	{3, 2, "lp-rounding", "8cbe78d94d526564"},
	{3, 2, "first-fit", "f977c1c64af1dc25"},
	{3, 2, "round-robin", "ERR"},
	{3, 2, "random", "152f3a3247b36945"},
	{3, 3, "minmax", "832475d2eb24fed7"},
	{3, 3, "lp-rounding", "01973a40624058b5"},
	{3, 3, "first-fit", "285aa38c5e678304"},
	{3, 3, "round-robin", "24d4332274136294"},
	{3, 3, "random", "49f9bcb047b5d397"},
	// Captured before the lagrangian assigner priced its rounds through
	// gap.Candidates.
	{4, 1, "lagrangian", "55eb8592640de7e3"},
	{4, 2, "lagrangian", "6d4e3c0c2ce25c4c"},
	{4, 3, "lagrangian", "cab21e6647c7fdf8"},
}

// hashOf folds a placement vector with FNV-64a, each entry as a
// little-endian 4-byte word.
func hashOf(of []int) string {
	h := fnv.New64a()
	for _, j := range of {
		var b [4]byte
		b[0] = byte(j)
		b[1] = byte(j >> 8)
		b[2] = byte(j >> 16)
		b[3] = byte(j >> 24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenInstances builds every (shape, seed) instance of goldenShapes.
func goldenInstances(t *testing.T) map[[2]int64]*gap.Instance {
	t.Helper()
	instances := make(map[[2]int64]*gap.Instance)
	for si, sh := range goldenShapes {
		for seed := int64(1); seed <= 3; seed++ {
			in, err := gap.Synthetic(sh.kind, sh.n, sh.m, sh.rho, seed)
			if err == nil && sh.round {
				in, err = roundedCosts(in)
			}
			if err != nil {
				t.Fatalf("shape %d seed %d: %v", si, seed, err)
			}
			instances[[2]int64{int64(si), seed}] = in
		}
	}
	return instances
}

// TestMetaheuristicsGoldenAssignments replays every (shape, seed, algo)
// cell and requires the produced assignment to hash to its pre-Evaluator
// golden value: the bit-identical-per-seed guarantee, enforced.
func TestMetaheuristicsGoldenAssignments(t *testing.T) {
	instances := goldenInstances(t)
	reg := NewRegistry()
	for _, g := range goldenHashes {
		g := g
		t.Run(fmt.Sprintf("shape%d/seed%d/%s", g.shape, g.seed, g.algo), func(t *testing.T) {
			in := instances[[2]int64{int64(g.shape), g.seed}]
			a, err := reg.New(g.algo, g.seed*100)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Assign(in)
			if g.hash == "ERR" {
				if err == nil {
					t.Fatalf("expected deterministic error, got assignment %s", hashOf(got.Of))
				}
				return
			}
			if err != nil {
				t.Fatalf("Assign: %v", err)
			}
			if h := hashOf(got.Of); h != g.hash {
				t.Fatalf("assignment hash %s, golden %s — per-seed output changed", h, g.hash)
			}
		})
	}
}

// learningHashes pins what the RL assigners learn, with the regret-greedy
// warm start off (RLParams.NoWarmStart): with it on, most RL rows of
// goldenHashes return the warm start itself, so they would not notice a Q
// table that handed back the wrong row. Bandit has no warm start and no Q
// table; its shape-3 rows extend goldenHashes to the fourth shape. trace
// is traceHash of QLearning's best-so-far curve. All rows were captured
// before the Q table moved from a string-keyed map to its own store.
var learningHashes = []struct {
	shape int
	seed  int64
	algo  string
	hash  string
	trace string
}{
	{0, 1, "qlearning", "510794fe5e9618c1", "2d4af0c9603155c5"},
	{0, 1, "sarsa", "510794fe5e9618c1", ""},
	{0, 1, "expected-sarsa", "510794fe5e9618c1", ""},
	{0, 1, "double-qlearning", "e24f405b021ebce1", ""},
	{0, 1, "nstep-qlearning", "510794fe5e9618c1", ""},
	{0, 2, "qlearning", "dbf27d8438714ec7", "57ddab5d8e616c05"},
	{0, 2, "sarsa", "dbf27d8438714ec7", ""},
	{0, 2, "expected-sarsa", "dbf27d8438714ec7", ""},
	{0, 2, "double-qlearning", "dbf27d8438714ec7", ""},
	{0, 2, "nstep-qlearning", "dbf27d8438714ec7", ""},
	{0, 3, "qlearning", "da4416e23f19f8a2", "e29a79473e0a8625"},
	{0, 3, "sarsa", "da4416e23f19f8a2", ""},
	{0, 3, "expected-sarsa", "da4416e23f19f8a2", ""},
	{0, 3, "double-qlearning", "da4416e23f19f8a2", ""},
	{0, 3, "nstep-qlearning", "da4416e23f19f8a2", ""},
	{1, 1, "qlearning", "e47016af67a97cf5", "7519ccdca13ac0ff"},
	{1, 1, "sarsa", "73bda1fe4d1cef14", ""},
	{1, 1, "expected-sarsa", "ca4e7b5bdebab076", ""},
	{1, 1, "double-qlearning", "a5a48165489f4595", ""},
	{1, 1, "nstep-qlearning", "790684ccd6fbe064", ""},
	{1, 2, "qlearning", "dc311e3b66623167", "f65df7e4848f7977"},
	{1, 2, "sarsa", "610bbe8b18152ce6", ""},
	{1, 2, "expected-sarsa", "7eb992526183ea27", ""},
	{1, 2, "double-qlearning", "77c3b75de0f035f6", ""},
	{1, 2, "nstep-qlearning", "2b6fdc4cf0cf5e37", ""},
	{1, 3, "qlearning", "6c1bb83a87de0e34", "fb3429032e9e9b99"},
	{1, 3, "sarsa", "3d17f271c1377da6", ""},
	{1, 3, "expected-sarsa", "a71ed79f7eb85514", ""},
	{1, 3, "double-qlearning", "2aba2446b50c8a27", ""},
	{1, 3, "nstep-qlearning", "a644113617036fb6", ""},
	{2, 1, "qlearning", "26bd3fdda7ba3e86", "a25208f7c3dcc805"},
	{2, 1, "sarsa", "26bd3fdda7ba3e86", ""},
	{2, 1, "expected-sarsa", "26bd3fdda7ba3e86", ""},
	{2, 1, "double-qlearning", "26bd3fdda7ba3e86", ""},
	{2, 1, "nstep-qlearning", "26bd3fdda7ba3e86", ""},
	{2, 2, "qlearning", "ee099c515ce1f231", "089dcfca14558f85"},
	{2, 2, "sarsa", "ee099c515ce1f231", ""},
	{2, 2, "expected-sarsa", "ee099c515ce1f231", ""},
	{2, 2, "double-qlearning", "ee099c515ce1f231", ""},
	{2, 2, "nstep-qlearning", "ee099c515ce1f231", ""},
	{2, 3, "qlearning", "55d738b607eecbd1", "d3eade2541c67505"},
	{2, 3, "sarsa", "55d738b607eecbd1", ""},
	{2, 3, "expected-sarsa", "55d738b607eecbd1", ""},
	{2, 3, "double-qlearning", "55d738b607eecbd1", ""},
	{2, 3, "nstep-qlearning", "55d738b607eecbd1", ""},
	{3, 1, "qlearning", "238063a521c73816", "67d52ebe80463225"},
	{3, 1, "sarsa", "e2a9d07d45966c77", ""},
	{3, 1, "expected-sarsa", "5ff78c28a5ea2194", ""},
	{3, 1, "double-qlearning", "d1144cbb2e42c814", ""},
	{3, 1, "nstep-qlearning", "b89c992661890510", ""},
	{3, 1, "bandit", "bf8c2afd307581f7", ""},
	{3, 2, "qlearning", "72dc877fb6799184", "000c8e3877724abb"},
	{3, 2, "sarsa", "782020a3c31066c0", ""},
	{3, 2, "expected-sarsa", "c6b7f7014ee68520", ""},
	{3, 2, "double-qlearning", "85ff342601eb8710", ""},
	{3, 2, "nstep-qlearning", "999238c793e97407", ""},
	{3, 2, "bandit", "9f67554b561cb1d3", ""},
	{3, 3, "qlearning", "52fbbeb9ed1e6460", "673a87bf68cf76a5"},
	{3, 3, "sarsa", "52fbbeb9ed1e6460", ""},
	{3, 3, "expected-sarsa", "52fbbeb9ed1e6460", ""},
	{3, 3, "double-qlearning", "52fbbeb9ed1e6460", ""},
	{3, 3, "nstep-qlearning", "52fbbeb9ed1e6460", ""},
	{3, 3, "bandit", "cdab45184a2befe2", ""},
}

// newLearner returns the RL assigner algo with params p (bandit, which
// takes no RLParams, ignores them).
func newLearner(algo string, seed int64, p RLParams) Assigner {
	switch algo {
	case "qlearning":
		return &QLearning{Params: p, seed: seed}
	case "sarsa":
		return &SARSA{Params: p, seed: seed}
	case "expected-sarsa":
		return &ExpectedSARSA{Params: p, seed: seed}
	case "double-qlearning":
		return &DoubleQLearning{Params: p, seed: seed}
	case "nstep-qlearning":
		return &NStepQLearning{Params: p, seed: seed}
	case "bandit":
		return NewBandit(seed)
	}
	panic("newLearner: unknown algorithm " + algo)
}

// traceHash folds a cost curve with FNV-64a, each value's IEEE-754 bits
// as a little-endian 8-byte word.
func traceHash(curve []float64) string {
	h := fnv.New64a()
	for _, v := range curve {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordCurve attaches a progress sink to q that records, per episode,
// the best total cost found so far: the convergence curve.
func recordCurve(q *QLearning) *[]float64 {
	var curve []float64
	q.SetProgress(obs.ProgressFunc(func(ev obs.IterEvent) { curve = append(curve, ev.BestCost) }))
	return &curve
}

// TestLearningGoldenAssignments replays every learningHashes row: the
// assignment, and for Q-learning the per-episode curve, must be the
// bits captured before the Q table rewrite.
func TestLearningGoldenAssignments(t *testing.T) {
	instances := goldenInstances(t)
	for _, g := range learningHashes {
		g := g
		t.Run(fmt.Sprintf("shape%d/seed%d/%s", g.shape, g.seed, g.algo), func(t *testing.T) {
			a := newLearner(g.algo, g.seed*100, RLParams{NoWarmStart: true})
			var curve *[]float64
			if q, ok := a.(*QLearning); ok {
				curve = recordCurve(q)
			}
			got, err := a.Assign(instances[[2]int64{int64(g.shape), g.seed}])
			h := "ERR"
			if err == nil {
				h = hashOf(got.Of)
			}
			tr := ""
			if curve != nil {
				tr = traceHash(*curve)
			}
			if h != g.hash || tr != g.trace {
				t.Fatalf("assignment %s trace %q, golden %s trace %q — learning changed", h, tr, g.hash, g.trace)
			}
		})
	}
}
