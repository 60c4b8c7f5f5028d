package assign_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"taccc/internal/assign"
	"taccc/internal/experiment"
)

// TestQLearningGoldenScenario pins Q-learning, warm start off, on a
// generated hierarchical 600×30 deployment at ρ=0.85. Its Q table grows
// to 232,900 rows, well past the sizes the synthetic golden shapes reach,
// and its best-so-far curve improves six times over the 400 episodes, so
// a table that lost or mixed up rows once it grew large would change the
// curve or the assignment. Both hashes were captured before the Q table
// moved from a string-keyed map to its own store.
func TestQLearningGoldenScenario(t *testing.T) {
	built, err := experiment.Scenario{NumIoT: 600, NumEdge: 30, Rho: 0.85, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := assign.NewQLearning(1)
	q.Params.NoWarmStart = true
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
	curve := q.Trace()
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
	if h := fmt.Sprintf("%016x", of.Sum64()); h != "51ed53a4955184c5" {
		t.Errorf("assignment hash %s, golden 51ed53a4955184c5", h)
	}
	if h := fmt.Sprintf("%016x", tr.Sum64()); h != "aff61c18c818e486" {
		t.Errorf("curve hash %s, golden aff61c18c818e486", h)
	}
	if last := curve[len(curve)-1]; distinct != 7 || math.Abs(last-2517.231) > 5e-4 {
		t.Errorf("curve takes %d distinct values ending at %.3f, want 7 ending at 2517.231", distinct, last)
	}
}
