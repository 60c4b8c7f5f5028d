package gap

// Evaluator maintains the running objective and per-edge feasibility
// slack of one assignment over one instance, and prices single-device
// moves and pairwise swaps in O(1) instead of the O(n) full re-cost of
// Instance.TotalCost. It is the one delta-cost implementation in the
// repository: the metaheuristics in internal/assign drive their inner
// loops through it.
//
// Contract:
//
//   - The Evaluator owns its assignment vector and residual-capacity
//     buffer; callers mutate them only through Move/Swap/Place/Unassign.
//     The instance stays shared and read-only.
//   - Reset loads a placement (entries may be -1 = unplaced) and rebuilds
//     total and residuals with the same accumulation order the classic
//     solvers used (devices ascending), so a freshly Reset Evaluator is
//     bit-identical to the from-scratch state those solvers computed.
//   - Applied operations update the running total as total += delta, the
//     exact arithmetic the pre-Evaluator solvers performed; solver
//     results therefore stay bit-identical per seed.
//   - Total() drifts from CostOf only by float rounding accumulated over
//     applied deltas; RecomputeTotal() re-sums in device order when a
//     solver needs the canonical full-scan value (LNS acceptance does).
type Evaluator struct {
	in   *Instance
	n, m int
	of   []int
	// residual[j] is Capacity[j] minus the load on edge j, maintained by
	// the identical += / -= sequence the solvers used on their local
	// residual slices.
	residual []float64
	total    float64
}

// NewEvaluator returns an Evaluator for in with every device unplaced.
// Allocation happens only here; Reset and the operations reuse the
// buffers.
func NewEvaluator(in *Instance) *Evaluator {
	e := &Evaluator{
		in:       in,
		n:        in.N(),
		m:        in.M(),
		of:       make([]int, in.N()),
		residual: make([]float64, in.M()),
	}
	for i := range e.of {
		e.of[i] = -1
	}
	copy(e.residual, in.Capacity)
	return e
}

// Instance returns the instance the Evaluator prices against.
func (e *Evaluator) Instance() *Instance { return e.in }

// Reset loads the placement (of[i] = edge of device i, -1 = unplaced),
// rebuilding the running total and residuals from scratch. of is copied,
// not retained.
func (e *Evaluator) Reset(of []int) {
	copy(e.of, of)
	copy(e.residual, e.in.Capacity)
	total := 0.0
	for i, j := range e.of {
		if j < 0 {
			continue
		}
		e.residual[j] -= e.in.WeightAt(i, j)
		total += e.in.CostAt(i, j)
	}
	e.total = total
}

// Total returns the running total cost of the loaded placement.
func (e *Evaluator) Total() float64 { return e.total }

// RecomputeTotal re-sums the placement cost in device order — the
// canonical CostOf value, free of incremental rounding drift — stores it
// as the running total and returns it.
func (e *Evaluator) RecomputeTotal() float64 {
	e.total = e.in.CostOf(e.of)
	return e.total
}

// Placement returns the live assignment slice for read-only use in solver
// hot loops; see Residuals for the ownership rules.
func (e *Evaluator) Placement() []int { return e.of }

// Assignment copies the current placement into dst (allocating when dst
// is too short) and returns it.
func (e *Evaluator) Assignment(dst []int) []int {
	if cap(dst) < e.n {
		dst = make([]int, e.n)
	}
	dst = dst[:e.n]
	copy(dst, e.of)
	return dst
}

// Residuals returns the live residual-capacity slice for read-only use in
// solver hot loops (no per-edge method-call overhead). The Evaluator keeps
// ownership: callers must not write to it, and the values change under
// every applied operation.
func (e *Evaluator) Residuals() []float64 { return e.residual }

// DeltaMove prices moving device i to edge `to` in O(1): the change in
// total cost, negative = improvement. The device must be placed.
func (e *Evaluator) DeltaMove(i, to int) float64 {
	row := e.in.CostRow(i)
	return row[to] - row[e.of[i]]
}

// DeltaSwap prices exchanging devices a's and b's edges in O(1), with the
// operand order the classic swap neighborhood used (so ties at the
// acceptance epsilon break identically).
func (e *Evaluator) DeltaSwap(a, b int) float64 {
	ja, jb := e.of[a], e.of[b]
	rowA, rowB := e.in.CostRow(a), e.in.CostRow(b)
	return rowA[jb] + rowB[ja] - rowA[ja] - rowB[jb]
}

// Move applies the shift of device i to edge `to`, updating residuals and
// the running total with the same arithmetic sequence the classic shift
// move used. Returns the cost delta.
func (e *Evaluator) Move(i, to int) float64 {
	from := e.of[i]
	delta := e.DeltaMove(i, to)
	e.residual[from] += e.in.WeightAt(i, from)
	e.residual[to] -= e.in.WeightAt(i, to)
	e.of[i] = to
	e.total += delta
	return delta
}

// Swap applies the exchange of devices a's and b's edges (which must
// differ), updating residuals with the classic release-then-place
// sequence. Returns the cost delta.
func (e *Evaluator) Swap(a, b int) float64 {
	ja, jb := e.of[a], e.of[b]
	delta := e.DeltaSwap(a, b)
	resA := e.residual[ja] + e.in.WeightAt(a, ja)
	resB := e.residual[jb] + e.in.WeightAt(b, jb)
	e.residual[ja] = resA - e.in.WeightAt(b, ja)
	e.residual[jb] = resB - e.in.WeightAt(a, jb)
	e.of[a], e.of[b] = jb, ja
	e.total += delta
	return delta
}

// Unassign removes placed device i, releasing its capacity and cost.
func (e *Evaluator) Unassign(i int) {
	j := e.of[i]
	e.residual[j] += e.in.WeightAt(i, j)
	e.total -= e.in.CostAt(i, j)
	e.of[i] = -1
}

// Place assigns unplaced device i to edge j.
func (e *Evaluator) Place(i, j int) {
	e.residual[j] -= e.in.WeightAt(i, j)
	e.total += e.in.CostAt(i, j)
	e.of[i] = j
}
