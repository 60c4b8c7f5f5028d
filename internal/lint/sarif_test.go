package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"taccc/internal/jsonx"
)

// readSARIF parses and validates a document written by WriteSARIF and
// reconstructs its findings. It is strict on purpose: unknown or
// mis-cased members, a version other than 2.1.0, anything but exactly
// one run, a result whose ruleId the driver did not declare, a result
// without a location, or a region before line 1 are all errors.
func readSARIF(r io.Reader) ([]Finding, error) {
	var doc sarifLog
	if err := jsonx.Decode(r, &doc); err != nil {
		return nil, fmt.Errorf("sarif: %w", err)
	}
	if doc.Version != sarifVersion {
		return nil, fmt.Errorf("sarif: version %q, want %q", doc.Version, sarifVersion)
	}
	if len(doc.Runs) != 1 {
		return nil, fmt.Errorf("sarif: %d runs, want exactly 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name == "" {
		return nil, fmt.Errorf("sarif: missing tool.driver.name")
	}
	declared := make(map[string]bool, len(run.Tool.Driver.Rules))
	for _, rule := range run.Tool.Driver.Rules {
		if rule.ID == "" {
			return nil, fmt.Errorf("sarif: rule with empty id")
		}
		declared[rule.ID] = true
	}
	findings := make([]Finding, 0, len(run.Results))
	for i, res := range run.Results {
		if !declared[res.RuleID] {
			return nil, fmt.Errorf("sarif: result %d has undeclared ruleId %q", i, res.RuleID)
		}
		if len(res.Locations) == 0 {
			return nil, fmt.Errorf("sarif: result %d has no location", i)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" {
			return nil, fmt.Errorf("sarif: result %d has no artifact uri", i)
		}
		if loc.Region.StartLine < 1 {
			return nil, fmt.Errorf("sarif: result %d has startLine %d, want >= 1", i, loc.Region.StartLine)
		}
		f := Finding{Analyzer: res.RuleID, Message: res.Message.Text}
		f.Pos.Filename = loc.ArtifactLocation.URI
		f.Pos.Line = loc.Region.StartLine
		f.Pos.Column = loc.Region.StartColumn
		findings = append(findings, f)
	}
	return findings, nil
}

func sampleFindings() []Finding {
	mk := func(analyzer, file string, line, col int, msg string) Finding {
		f := Finding{Analyzer: analyzer, Message: msg}
		f.Pos.Filename = file
		f.Pos.Line = line
		f.Pos.Column = col
		return f
	}
	return []Finding{
		mk("detrand", "/repo/internal/assign/solve.go", 42, 9, "wall-clock read time.Now in a deterministic package"),
		mk("parshare", "/repo/internal/topology/paths.go", 7, 3, `append to captured slice "out" inside a par.For closure`),
		mk("allow", "/repo/internal/gap/gap.go", 3, 1, "malformed //lint:allow directive: missing reason"),
	}
}

// TestSARIFRoundTrip writes findings and reads them back through the
// strict reader: analyzer, relative slash path, line, column and message
// all survive.
func TestSARIFRoundTrip(t *testing.T) {
	in := sampleFindings()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, in, "/repo"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	out, err := readSARIF(&buf)
	if err != nil {
		t.Fatalf("ReadSARIF rejected our own output: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip returned %d findings, want %d", len(out), len(in))
	}
	wantURIs := []string{"internal/assign/solve.go", "internal/topology/paths.go", "internal/gap/gap.go"}
	for i, f := range out {
		if f.Analyzer != in[i].Analyzer || f.Message != in[i].Message {
			t.Errorf("finding %d = %s %q, want %s %q", i, f.Analyzer, f.Message, in[i].Analyzer, in[i].Message)
		}
		if f.Pos.Filename != wantURIs[i] {
			t.Errorf("finding %d uri = %q, want %q", i, f.Pos.Filename, wantURIs[i])
		}
		if f.Pos.Line != in[i].Pos.Line || f.Pos.Column != in[i].Pos.Column {
			t.Errorf("finding %d at %d:%d, want %d:%d", i, f.Pos.Line, f.Pos.Column, in[i].Pos.Line, in[i].Pos.Column)
		}
	}
}

// TestSARIFCleanRun pins the empty-tree shape: still a complete document
// — version, one run, the full rule table — with a results array that is
// present and empty, not null (GitHub's upload rejects null).
func TestSARIFCleanRun(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, ""); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "taclint" {
		t.Errorf("unexpected document shape: %s", buf.String())
	}
	if string(doc.Runs[0].Results) != "[]" {
		t.Errorf("clean run results = %s, want []", doc.Runs[0].Results)
	}
	// One rule per analyzer plus the allow pseudo-rule.
	if want := len(Analyzers()) + 1; len(doc.Runs[0].Tool.Driver.Rules) != want {
		t.Errorf("rule table has %d entries, want %d", len(doc.Runs[0].Tool.Driver.Rules), want)
	}
	if _, err := readSARIF(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("strict reader rejected the clean document: %v", err)
	}
}

// TestSARIFReaderStrictness feeds readSARIF, the reader the round-trip
// tests rely on, documents that are near-valid in exactly one way each;
// all must be rejected, so no round trip passes on a lax reading.
func TestSARIFReaderStrictness(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteSARIF(&valid, sampleFindings(), "/repo"); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(string) string{
		"unknown field": func(s string) string {
			return strings.Replace(s, `"version"`, `"versionn"`, 1)
		},
		"wrong version": func(s string) string {
			return strings.Replace(s, `"2.1.0"`, `"2.0.0"`, 1)
		},
		"undeclared ruleId": func(s string) string {
			return strings.Replace(s, `"ruleId": "detrand"`, `"ruleId": "nosuch"`, 1)
		},
		"zero startLine": func(s string) string {
			return strings.Replace(s, `"startLine": 42`, `"startLine": 0`, 1)
		},
	}
	for name, mutate := range cases {
		doc := mutate(valid.String())
		if doc == valid.String() {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := readSARIF(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: strict reader accepted the document", name)
		}
	}

	// Structurally valid JSON with two runs.
	twoRuns := `{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[` +
		`{"tool":{"driver":{"name":"taclint","rules":[]}},"results":[]},` +
		`{"tool":{"driver":{"name":"taclint","rules":[]}},"results":[]}]}`
	if _, err := readSARIF(strings.NewReader(twoRuns)); err == nil {
		t.Errorf("two runs: strict reader accepted the document")
	}
	// A result without locations, well-formed.
	noLoc := `{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[` +
		`{"tool":{"driver":{"name":"taclint","rules":[{"id":"detrand","shortDescription":{"text":"d"}}]}},` +
		`"results":[{"ruleId":"detrand","level":"error","message":{"text":"m"},"locations":[]}]}]}`
	if _, err := readSARIF(strings.NewReader(noLoc)); err == nil {
		t.Errorf("no locations: strict reader accepted the document")
	}
}
