package gap

import (
	"encoding/json"
	"fmt"
	"io"

	"taccc/internal/jsonx"
)

// instanceJSON is the wire format for Instance.
type instanceJSON struct {
	CostMs   [][]float64 `json:"cost_ms"`
	Weight   [][]float64 `json:"weight"`
	Capacity []float64   `json:"capacity"`
}

// WriteJSON serializes the instance. The cost rows are views of the
// store; the weight rows, one value per cell whatever the store's
// layout, share one buffer filled through WeightAt.
func (in *Instance) WriteJSON(w io.Writer) error {
	n, m := in.N(), in.M()
	ij := instanceJSON{CostMs: make([][]float64, n), Weight: make([][]float64, n), Capacity: in.Capacity}
	weight := make([]float64, n*m)
	for i := range ij.CostMs {
		row := weight[i*m : (i+1)*m : (i+1)*m]
		for j := range row {
			row[j] = in.WeightAt(i, j)
		}
		ij.CostMs[i], ij.Weight[i] = in.CostRow(i), row
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ij)
}

// ReadJSON parses and validates an instance written by WriteJSON,
// strictly: see jsonx.Decode.
func ReadJSON(r io.Reader) (*Instance, error) {
	var ij instanceJSON
	if err := jsonx.Decode(r, &ij); err != nil {
		return nil, fmt.Errorf("gap: decoding instance: %w", err)
	}
	return NewInstance(ij.CostMs, ij.Weight, ij.Capacity)
}

// assignmentJSON is the wire format for Assignment.
type assignmentJSON struct {
	Of []int `json:"of"`
}

// WriteJSON serializes the assignment.
func (a *Assignment) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(assignmentJSON{Of: a.Of})
}
