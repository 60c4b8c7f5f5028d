package assign_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"taccc/internal/assign"
	"taccc/internal/experiment"
	"taccc/internal/obs"
)

// scenarioGoldens pin Q-learning, warm start off, on generated
// hierarchical deployments at ρ=0.85, seed 1, where the Q table grows
// well past the sizes the synthetic golden shapes reach. A table that
// lost or mixed up rows once it grew large, or a state key that merged
// two states, would change the curve or the assignment.
//
//   - 600×30 at the default levels: 232,900 rows, and the best-so-far
//     curve improves six times over the 400 episodes. Both hashes were
//     captured before the Q table moved from a string-keyed map to its
//     own store.
//   - 300×40 at LoadLevels 8: with 3 bits per edge, edge 21's field
//     straddles the state key's first two 64-bit words.
//   - rl-solve's 2000×50 at the default levels: a 100-bit key over two
//     words. It takes a few seconds under -race, so it is not skipped
//     there.
//
// The last two were captured before the state key was packed into words
// and the greedy action read from a per-device cost order.
var scenarioGoldens = []struct {
	iot, edge, levels int
	of, curve         string
	distinct          int
	last              float64
}{
	{600, 30, 0, "51ed53a4955184c5", "aff61c18c818e486", 7, 2517.231},
	{300, 40, 8, "82d3bae331203c5c", "c2572a21389dc290", 7, 1263.378},
	{2000, 50, 0, "57defbe983580844", "396e923123209411", 10, 9206.057},
}

func TestQLearningGoldenScenario(t *testing.T) {
	for _, g := range scenarioGoldens {
		t.Run(fmt.Sprintf("%dx%d/levels%d", g.iot, g.edge, g.levels), func(t *testing.T) {
			built, err := experiment.Scenario{NumIoT: g.iot, NumEdge: g.edge, Rho: 0.85, Seed: 1}.Build()
			if err != nil {
				t.Fatal(err)
			}
			q := assign.NewQLearning(1)
			q.Params.NoWarmStart = true
			q.Params.LoadLevels = g.levels
			var curve []float64
			q.SetProgress(obs.ProgressFunc(func(ev obs.IterEvent) { curve = append(curve, ev.BestCost) }))
			got, err := q.Assign(built.Instance)
			if err != nil {
				t.Fatal(err)
			}
			of := fnv.New64a()
			for _, j := range got.Of {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], uint32(j))
				of.Write(b[:])
			}
			tr := fnv.New64a()
			distinct := 0
			for k, v := range curve {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				tr.Write(b[:])
				if k == 0 || v != curve[k-1] {
					distinct++
				}
			}
			if h := fmt.Sprintf("%016x", of.Sum64()); h != g.of {
				t.Errorf("assignment hash %s, golden %s", h, g.of)
			}
			if h := fmt.Sprintf("%016x", tr.Sum64()); h != g.curve {
				t.Errorf("curve hash %s, golden %s", h, g.curve)
			}
			if last := curve[len(curve)-1]; distinct != g.distinct || math.Abs(last-g.last) > 5e-4 {
				t.Errorf("curve takes %d distinct values ending at %.3f, want %d ending at %.3f", distinct, last, g.distinct, g.last)
			}
		})
	}
}
