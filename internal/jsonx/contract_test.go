package jsonx_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taccc/internal/experiment"
	"taccc/internal/gap"
	"taccc/internal/obs"
	"taccc/internal/obs/runlog"
)

// reader is one tool-facing reader routed through jsonx.Decode, with a
// document its writer produced and the members the mutations target.
type reader struct {
	name string
	doc  []byte
	read func(t *testing.T, doc []byte) error
	// member is a member of a struct object, below the top level where
	// the schema has one; "" when every member name is valid (a map).
	member string
	// dup is a member with a value of the right type, inserted before
	// the first dup name to give it twice.
	dup string
}

// TestReadersKeepTheContract feeds every routed reader its writer's
// output with one defect each: a mis-cased member, an unknown member, a
// member given twice, trailing non-whitespace and two concatenated
// values, and a document that is only null. Each must be rejected; the
// output with trailing whitespace must be accepted.
func TestReadersKeepTheContract(t *testing.T) {
	for _, r := range routedReaders(t) {
		if err := r.read(t, append(bytes.Clone(r.doc), " \n\t\r\n"...)); err != nil {
			t.Fatalf("%s: writer output with trailing whitespace rejected: %v", r.name, err)
		}
		// Each defect maps to its input and to what the error must name.
		dupName := r.dup[:strings.Index(r.dup, ":")]
		defects := map[string][2]string{
			"trailing non-whitespace": {string(r.doc) + "garbage", "after top-level value"},
			"two concatenated values": {string(r.doc) + string(r.doc), "after top-level value"},
			"member given twice":      {insertBefore(t, r, dupName, r.dup+", "), "duplicate member"},
			"top-level null":          {"null\n", "top-level value is null"},
		}
		if r.member != "" {
			quoted := `"` + r.member + `"`
			upper := strings.ToUpper(r.member)
			defects["mis-cased member"] = [2]string{strings.Replace(string(r.doc), quoted, `"`+upper+`"`, 1), upper}
			defects["unknown member"] = [2]string{insertBefore(t, r, quoted, `"extra": 0, `), "extra"}
		}
		for defect, tc := range defects {
			err := r.read(t, []byte(tc[0]))
			if err == nil || !strings.Contains(err.Error(), tc[1]) {
				t.Errorf("%s: %s: error %v, want one naming %q", r.name, defect, err, tc[1])
			}
		}
	}
}

// insertBefore inserts text before the first occurrence of at.
func insertBefore(t *testing.T, r reader, at, text string) string {
	t.Helper()
	i := bytes.Index(r.doc, []byte(at))
	if i < 0 {
		t.Fatalf("%s: %s not in the writer's output", r.name, at)
	}
	return string(r.doc[:i]) + text + string(r.doc[i:])
}

func routedReaders(t *testing.T) []reader {
	var instance bytes.Buffer
	in, err := gap.Synthetic(gap.SyntheticUniform, 3, 2, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteJSON(&instance); err != nil {
		t.Fatal(err)
	}
	var bench bytes.Buffer
	br := &experiment.BenchResults{Tool: "tacbench", Scenarios: []experiment.BenchScenario{{
		ID: "small", NumIoT: 3, NumEdge: 2, Rho: 0.7,
		Algos: []experiment.BenchAlgo{{Name: "greedy", MeanCostMs: 1.5, Reps: 2}},
	}}}
	if err := br.WriteJSON(&bench); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	spans := []obs.Span{{Trace: obs.PipelineTrace, ID: 1, Name: "run", StartMs: 0, EndMs: 2}}
	if err := obs.WriteChromeTrace(&chrome, spans); err != nil {
		t.Fatal(err)
	}
	archive := filepath.Join(t.TempDir(), "run")
	w, err := runlog.Create(archive, runlog.Manifest{Tool: "tactest", Config: map[string]string{"algo": "greedy"}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Histogram("latency_ms", obs.DefaultLatencyBucketsMs()).Observe(3)
	if err := w.Close(reg.Snapshot(), runlog.Summary{"sim.completed": 9}); err != nil {
		t.Fatal(err)
	}
	archiveFile := func(name, member, dup string) reader {
		doc, err := os.ReadFile(filepath.Join(archive, name))
		if err != nil {
			t.Fatal(err)
		}
		return reader{name: "runlog " + name, doc: doc, member: member, dup: dup,
			read: func(t *testing.T, doc []byte) error {
				dir := t.TempDir()
				for _, f := range []string{runlog.ManifestFile, runlog.EventsFile, runlog.MetricsFile, runlog.SummaryFile} {
					data, err := os.ReadFile(filepath.Join(archive, f))
					if err != nil {
						t.Fatal(err)
					}
					if f == name {
						data = doc
					}
					if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				_, err := runlog.Load(dir)
				return err
			}}
	}
	return []reader{
		// An instance has no member below the top level.
		{name: "gap instance", doc: instance.Bytes(), member: "weight", dup: `"capacity": [1, 1]`,
			read: func(_ *testing.T, doc []byte) error {
				_, err := gap.ReadJSON(bytes.NewReader(doc))
				return err
			}},
		{name: "bench results", doc: bench.Bytes(), member: "mean_cost_ms", dup: `"reps": 1`,
			read: func(_ *testing.T, doc []byte) error {
				_, err := experiment.ReadBenchResults(bytes.NewReader(doc))
				return err
			}},
		{name: "chrome trace", doc: chrome.Bytes(), member: "tid", dup: `"name": "x"`,
			read: func(_ *testing.T, doc []byte) error {
				_, err := obs.ReadChromeTrace(bytes.NewReader(doc))
				return err
			}},
		// The manifest has no struct below the top level; its config is
		// a map, where any name is valid, but not twice.
		archiveFile(runlog.ManifestFile, "tool", `"algo": "tabu"`),
		archiveFile(runlog.MetricsFile, "count", `"count": 1`),
		archiveFile(runlog.SummaryFile, "", `"sim.completed": 1`),
	}
}
