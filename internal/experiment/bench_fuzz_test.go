package experiment

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadBenchResults checks the reader tacreport applies to
// BENCH_results.json files: an input is either rejected with an error or
// re-encodes through WriteJSON and reads back to the same results, with
// a second encoding byte-identical to the first. It must never panic. An
// accepted input must be rejected with a non-letter byte appended, or
// with the case of its first member name's first letter swapped.
func FuzzReadBenchResults(f *testing.F) {
	valid := &BenchResults{
		Tool: "tacbench", Version: "v0.0.0-test", Seed: 1, Quick: true, Reps: 2,
		Scenarios: []BenchScenario{{
			ID: "small", NumIoT: 30, NumEdge: 4, Rho: 0.7,
			Algos: []BenchAlgo{{
				Name: "greedy", MeanCostMs: 12.5, CostCI95Ms: 0.25, FeasibleRuntimeMs: 0.003,
				RuntimeCI95Ms: 1e-4, AllocsPerOp: 9, BytesPerOp: 1 << 10, PeakHeapBytes: 4096,
				GCPauseMs: 0.02, GCPauseCI95Ms: 0.001, FeasibleRate: 1, Errors: 1, Reps: 2,
			}},
		}},
	}
	var buf bytes.Buffer
	if err := valid.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"scenarios":[{"id":"x","algorithms":[{"name":"a","mean_cost_ms":-0,"allocs_per_op":18446744073709551615}]}]}`))
	f.Add([]byte(`{"scenarios":[{"id":"x","algorithms":[{}]}],"seed":-9223372036854775808,"tool":"é\ud800"}`))
	f.Add([]byte(`{"scenarios": [`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scenarios":[{"id":"small"}]}`))
	f.Add([]byte(`{"scenarios":[{"id":"x","algorithms":[{"name":"a","mean_cost_ms":1e400}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadBenchResults(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, b := range []byte(`0,}]"{`) {
			if _, err := ReadBenchResults(bytes.NewReader(append(bytes.Clone(data), b))); err == nil {
				t.Fatalf("accepted with %q appended", b)
			}
		}
		if i := bytes.IndexByte(data, '"'); i >= 0 && i+1 < len(data) {
			if c := data[i+1] | 0x20; c >= 'a' && c <= 'z' {
				swapped := bytes.Clone(data)
				swapped[i+1] ^= 0x20
				if _, err := ReadBenchResults(bytes.NewReader(swapped)); err == nil {
					t.Fatalf("accepted with the first member name's case swapped:\n%s", swapped)
				}
			}
		}
		var once bytes.Buffer
		if err := first.WriteJSON(&once); err != nil {
			t.Fatalf("accepted results do not encode: %v", err)
		}
		second, err := ReadBenchResults(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("encoded results do not read back: %v\n%s", err, once.Bytes())
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("results changed on read-back:\n%+v\n%+v", first, second)
		}
		var twice bytes.Buffer
		if err := second.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encoding changed on read-back:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
