package gap

import (
	"bytes"
	"testing"
)

// FuzzReadInstanceJSON feeds arbitrary bytes to ReadJSON. It must either
// return an error or return an instance whose WriteJSON output reads back
// and writes out again as the same bytes; it must never panic. An
// accepted input must be rejected with a non-letter byte appended, or
// with the case of its first member name's first letter swapped. The
// seeds cover a valid instance and each way the wire format can be
// malformed.
func FuzzReadInstanceJSON(f *testing.F) {
	valid, err := Synthetic(SyntheticCorrelated, 4, 3, 0.8, 5)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := valid.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		`{"cost_ms":[[1,2],[3,4]],"weight":[[1,1],[2,2]],"capacity":[3,3]}`,
		`{"cost_ms":[[1,2],[3]],"weight":[[1,1],[2,2]],"capacity":[3,3]}`,     // ragged cost row
		`{"cost_ms":[[1,2],[3,4]],"weight":[[1,1],[2]],"capacity":[3,3]}`,     // ragged weight row
		`{"cost_ms":[[1,2],[3,4]],"weight":[[1,1]],"capacity":[3,3]}`,         // a missing weight row
		`{"cost_ms":[[1,2],[3,4]],"capacity":[3,3]}`,                          // no weight rows
		`{"cost_ms":[[-1,2]],"weight":[[1,1]],"capacity":[3,3]}`,              // negative cost
		`{"cost_ms":[[1,2]],"weight":[[-1,1]],"capacity":[3,3]}`,              // negative weight
		`{"cost_ms":[[1,2]],"weight":[[1,1]],"capacity":[-3,3]}`,              // negative capacity
		`{"cost_ms":[[0,2]],"weight":[[0,1]],"capacity":[0,3]}`,               // zero weight
		`{"cost_ms":[[0,2]],"weight":[[1,1]],"capacity":[0,3]}`,               // zero cost and capacity
		`{"cost_ms":[[1]],"weight":[[1]],"capacity":[]}`,                      // empty capacity
		`{"cost_ms":[],"weight":[],"capacity":[1]}`,                           // no devices
		`{"cost_ms":[[1,2],[3,4]],"weight":[[1,1],[2,2]],"capacity":[3,3,3]}`, // more edges than columns
		`{"cost_ms":[[1,2,5]],"weight":[[1,1,1]],"capacity":[3,3]}`,           // more columns than edges
		`{"cost_ms":[[1e400]],"weight":[[1]],"capacity":[1]}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, b := range []byte(`0,}]"{`) {
			if _, err := ReadJSON(bytes.NewReader(append(bytes.Clone(data), b))); err == nil {
				t.Fatalf("accepted with %q appended", b)
			}
		}
		if i := bytes.IndexByte(data, '"'); i >= 0 && i+1 < len(data) {
			if c := data[i+1] | 0x20; c >= 'a' && c <= 'z' {
				swapped := bytes.Clone(data)
				swapped[i+1] ^= 0x20
				if _, err := ReadJSON(bytes.NewReader(swapped)); err == nil {
					t.Fatalf("accepted with the first member name's case swapped:\n%s", swapped)
				}
			}
		}
		var first, second bytes.Buffer
		if err := in.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of a read instance: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON output: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatalf("second WriteJSON: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
