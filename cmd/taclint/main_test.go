package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"taccc/internal/lint"
)

// TestRunRepoClean is the CLI-level acceptance check: taclint over the
// repository's own tree exits 0.
func TestRunRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("taclint ./... = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("taclint -list = %d, want 0\nstderr:\n%s", code, &stderr)
	}
	for _, name := range []string{"detrand", "maporder", "nilrecv", "sinkerr"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, &stdout)
		}
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "detrand,nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("taclint -only nope = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nope") {
		t.Errorf("stderr should name the unknown analyzer:\n%s", &stderr)
	}
	// The error lists the known analyzers, sorted, so the fix is one
	// copy-paste away.
	known := make([]string, 0, len(lint.Analyzers()))
	for _, a := range lint.Analyzers() {
		known = append(known, a.Name)
	}
	sort.Strings(known)
	if want := "known: " + strings.Join(known, ", "); !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr should list the known analyzers as %q:\n%s", want, &stderr)
	}
}

// TestRunOnlyToleratesEmptySegments pins the flag parsing: stray commas
// ("-only detrand,") must not read as an unknown empty-named analyzer.
func TestRunOnlyToleratesEmptySegments(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "-only", "detrand, ,", "./internal/lint"}, &stdout, &stderr); code != 0 {
		t.Fatalf("taclint -only \"detrand, ,\" = %d, want 0\nstderr:\n%s", code, &stderr)
	}
}

func TestRunUnknownFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml"}, &stdout, &stderr); code != 2 {
		t.Fatalf("taclint -format xml = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "sarif, text") {
		t.Errorf("stderr should list the known formats:\n%s", &stderr)
	}
}

// TestRunSeededViolation builds a throwaway module named taccc with a
// wall-clock read in internal/assign and asserts the CLI exits 1 and
// prints the finding with its analyzer tag.
func TestRunSeededViolation(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module taccc\n\ngo 1.22\n",
		"internal/assign/assign.go": `package assign

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("taclint on seeded module = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "[detrand]") {
		t.Errorf("finding should carry its analyzer tag:\n%s", &stdout)
	}

	// The same tree in SARIF: still exit 1, and the document carries the
	// finding at a relative URI.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-format", "sarif", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("taclint -format sarif on seeded module = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	results := sarifResults(t, stdout.Bytes())
	if len(results) != 1 || results[0].rule != "detrand" {
		t.Fatalf("sarif results = %v, want one detrand finding", results)
	}
	if results[0].uri != "internal/assign/assign.go" {
		t.Errorf("sarif uri = %q, want repo-relative internal/assign/assign.go", results[0].uri)
	}
}

// TestRunSARIFCleanTree checks the clean-tree SARIF path end to end: the
// repository's own lint package emits a complete, valid document with an
// empty results array and exits 0.
func TestRunSARIFCleanTree(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "-format", "sarif", "./internal/xrand"}, &stdout, &stderr); code != 0 {
		t.Fatalf("taclint -format sarif ./internal/xrand = %d, want 0\nstderr:\n%s", code, &stderr)
	}
	if results := sarifResults(t, stdout.Bytes()); len(results) != 0 {
		t.Errorf("clean tree produced findings in SARIF: %v", results)
	}
}

// sarifResult is one result of a SARIF document: its rule and file.
type sarifResult struct{ rule, uri string }

// sarifResults reads the results of taclint's one-run SARIF document.
// The lint package's round-trip tests check the schema strictly; the CLI
// tests compare only which rule fired in which file.
func sarifResults(t *testing.T, doc []byte) []sarifResult {
	t.Helper()
	var log struct {
		Runs []struct {
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(doc, &log); err != nil || len(log.Runs) != 1 {
		t.Fatalf("taclint SARIF output is not a one-run document (err %v):\n%s", err, doc)
	}
	results := []sarifResult{}
	for _, r := range log.Runs[0].Results {
		if len(r.Locations) == 0 {
			t.Fatalf("SARIF result %q has no location", r.RuleID)
		}
		results = append(results, sarifResult{r.RuleID, r.Locations[0].PhysicalLocation.ArtifactLocation.URI})
	}
	return results
}
