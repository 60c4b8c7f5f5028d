package assign

import (
	"math"
	"testing"

	"taccc/internal/gap"
	"taccc/internal/xrand"
)

// FuzzGreedyAction drives an MDP and its Q table with a decoded program
// and requires, at every state it visits, that greedy returns what
// bestQ returns over the row's values and the feasible edges, bit for
// bit, and reports ok false exactly when no edge fits.
//
// The input decodes to a small instance: up to 8 devices and 6 edges,
// costs from {0, 1, 2, 3} (so ties are common) or +Inf, weights 1–3 and
// capacities 0–4 (so some edges never fit), LoadLevels from {1, 2, 3, 4,
// 8}, with or without cost seeding. Each following byte then does one
// of three things. It sets one action of the current row, reachable or
// not, which leaves the row inline or spills it; the value lies in
// [-4, 0], where it often ties an init value (+0 against -0 too), or is
// -Inf or NaN. It takes any edge, fitting or not, so residuals run
// negative and dead ends occur. Or it takes the greedy action. An
// episode that places every device, or reaches a dead end, starts over,
// so rows are revisited under other residuals.
func FuzzGreedyAction(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 1, 7, 1, 2, 1, 1, 3, 3, 0, 1, 2, 0, 128, 1, 2, 4, 0, 3, 1})
	f.Add([]byte{5, 3, 4, 1, 0, 0, 3, 3, 7, 1, 2, 2, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 0, 4, 8, 0, 252, 1, 127, 5, 0, 9, 3, 3, 3})
	for seed := int64(1); seed <= 6; seed++ {
		src := xrand.New(seed)
		data := make([]byte, 300)
		for b := range data {
			data[b] = byte(src.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n, m := 1+next()%8, 1+next()%6
		levels := []int{1, 2, 3, 4, 8}[next()%5]
		costSeed := next()%2 == 0
		cost, weight := make([][]float64, n), make([][]float64, n)
		for i := range cost {
			cost[i], weight[i] = make([]float64, m), make([]float64, m)
			for j := range cost[i] {
				if c := next() % 5; c == 4 {
					cost[i][j] = math.Inf(1)
				} else {
					cost[i][j] = float64(c)
				}
				weight[i][j] = float64(1 + next()%3)
			}
		}
		capacity := make([]float64, m)
		for j := range capacity {
			capacity[j] = float64(next() % 5)
		}
		in, err := gap.NewInstance(cost, weight, capacity)
		if err != nil {
			t.Skip(err)
		}
		env := newMDP(in, levels)
		env.seedRows(costSeed)
		q := newQTable(m, len(env.key), env.rowInit)
		buf := make([]float64, m)
		env.reset()
		for len(data) > 0 {
			h := env.row(q)
			feasible := env.feasibleActions(nil)
			a, v, ok := env.greedy(q, h)
			if ok != (len(feasible) > 0) {
				t.Fatalf("step %d: greedy ok %v with feasible edges %v", env.step, ok, feasible)
			}
			if ok {
				wa, wv := bestQ(q.values(h, buf), feasible)
				if a != wa || math.Float64bits(v) != math.Float64bits(wv) {
					t.Fatalf("step %d, row %v, feasible %v: greedy (%d, %v), bestQ (%d, %v)", env.step, q.values(h, buf), feasible, a, v, wa, wv)
				}
			}
			switch op := next(); op % 4 {
			case 0, 1:
				x := float64(next()%9)/2 - 4
				switch op / 4 % 8 {
				case 0:
					x = math.Inf(-1)
				case 1:
					x = math.NaN()
				}
				q.set(h, next()%m, x)
				continue
			case 2:
				env.take(next() % m)
			default:
				if !ok {
					env.reset()
					continue
				}
				env.take(a)
			}
			if env.done() {
				env.reset()
			}
		}
	})
}
