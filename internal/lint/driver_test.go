package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taccc/internal/lint"
)

// repoRoot resolves the module root from the test's working directory
// (internal/lint) and sanity-checks it holds go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
	return root
}

// TestRepositoryCleanUnderDefaultRules is the gate the lint suite exists
// for: the tree as committed must produce zero findings under the default
// rules. Any regression — a wall-clock read sneaking into a solver, an
// unsorted map iteration feeding output — fails this test before it
// reaches CI's dedicated lint job.
func TestRepositoryCleanUnderDefaultRules(t *testing.T) {
	root := repoRoot(t)
	l, modPath, err := lint.NewModuleLoader(root)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(root, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := lint.Run(l, paths, lint.DefaultRules())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
}

// seedModule writes a throwaway module named taccc (so DefaultRules'
// path-based scoping applies) with one violation per seeded file.
func seedModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module taccc\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolationsAreCaught proves the suite has teeth: a wall-clock
// read in internal/assign, an emitting map-range in internal/experiment,
// and a reason-less allow directive each surface as findings under the
// default rules.
func TestSeededViolationsAreCaught(t *testing.T) {
	dir := seedModule(t, map[string]string{
		"internal/assign/assign.go": `package assign

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/experiment/dump.go": `package experiment

import "fmt"

func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
		"internal/gap/gap.go": `package gap

import "time"

//lint:allow detrand
func Tick() time.Time { return time.Now() }
`,
	})
	l, modPath, err := lint.NewModuleLoader(dir)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(dir, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := lint.Run(l, paths, lint.DefaultRules())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	// The gap file contributes twice: the malformed directive itself, and
	// the time.Now it consequently fails to suppress.
	want := map[string]int{"detrand": 2, "maporder": 1, "allow": 1}
	for a, n := range want {
		if byAnalyzer[a] != n {
			t.Errorf("analyzer %s: got %d findings, want %d (all: %v)", a, byAnalyzer[a], n, findings)
		}
	}
}

// TestSeededInterproceduralViolations proves the interprocedural teeth:
// a time.Now laundered through a two-hop helper chain in an unscoped
// utility package is flagged where the deterministic package calls it, a
// par closure growing a captured slice is flagged, and a float sum in
// map-range order is flagged — one finding per seeded violation, with
// the laundering chain spelled out.
func TestSeededInterproceduralViolations(t *testing.T) {
	dir := seedModule(t, map[string]string{
		// timeutil is outside every determinism scope; taintclock's facts
		// must carry the taint from here into internal/assign.
		"internal/timeutil/timeutil.go": `package timeutil

import "time"

func stamp() int64 { return time.Now().UnixNano() }

func Wrap() int64 { return stamp() }
`,
		"internal/assign/assign.go": `package assign

import "taccc/internal/timeutil"

func Solve() int64 { return timeutil.Wrap() }
`,
		"internal/par/par.go": `package par

func For(workers, n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
`,
		"internal/topology/paths.go": `package topology

import "taccc/internal/par"

func Collect(n int) []int {
	var out []int
	par.For(4, n, func(i int) {
		out = append(out, i*i)
	})
	return out
}
`,
		"internal/cluster/stats.go": `package cluster

func Total(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum
}
`,
	})
	l, modPath, err := lint.NewModuleLoader(dir)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(dir, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := lint.Run(l, paths, lint.DefaultRules())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byAnalyzer := make(map[string][]lint.Finding)
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], f)
	}
	for analyzer, want := range map[string]int{"taintclock": 1, "parshare": 1, "fpfold": 1} {
		if len(byAnalyzer[analyzer]) != want {
			t.Errorf("analyzer %s: got %d findings, want %d (all: %v)", analyzer, len(byAnalyzer[analyzer]), want, findings)
		}
	}
	if len(findings) != 3 {
		t.Errorf("got %d findings, want exactly 3: %v", len(findings), findings)
	}
	if tc := byAnalyzer["taintclock"]; len(tc) == 1 {
		if !strings.Contains(tc[0].Message, "timeutil.Wrap -> stamp -> time.Now") {
			t.Errorf("taintclock message lacks the laundering chain: %s", tc[0].Message)
		}
		if filepath.Base(filepath.Dir(tc[0].Pos.Filename)) != "assign" {
			t.Errorf("taintclock finding not at the deterministic call site: %+v", tc[0])
		}
	}
}

// TestClockDisciplineScope pins the exact-match scoping of the
// clock-discipline packages: a timer in internal/obs or internal/par is
// flagged (obs.Clock's annotated reads are the only sanctioned wall-clock
// sites), and internal/obs/slo — whose rolling windows must advance on
// sim time only — is flagged too, while internal/obs/runlog — which
// stamps archive manifests with real timestamps — is outside despite
// sharing the obs prefix.
func TestClockDisciplineScope(t *testing.T) {
	dir := seedModule(t, map[string]string{
		"internal/obs/clockish.go": `package obs

import "time"

func Pace() { time.Sleep(time.Millisecond) }
`,
		"internal/par/par.go": `package par

import "time"

func Throttle() <-chan time.Time { return time.After(time.Millisecond) }
`,
		"internal/obs/slo/window.go": `package slo

import "time"

func WindowEdge() int64 { return time.Now().UnixMilli() }
`,
		"internal/obs/runlog/runlog.go": `package runlog

import "time"

func Stamp() time.Time { return time.Now() }
`,
	})
	l, modPath, err := lint.NewModuleLoader(dir)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(dir, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := lint.Run(l, paths, lint.DefaultRules())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3 (obs + slo + par, not runlog): %v", len(findings), findings)
	}
	sloFlagged := false
	for _, f := range findings {
		if f.Analyzer != "detrand" {
			t.Errorf("unexpected analyzer %s: %+v", f.Analyzer, f)
		}
		switch filepath.Base(filepath.Dir(f.Pos.Filename)) {
		case "runlog":
			t.Errorf("runlog should be outside the clock-discipline scope: %+v", f)
		case "slo":
			sloFlagged = true
		}
	}
	if !sloFlagged {
		t.Errorf("wall-clock read in internal/obs/slo not flagged: %v", findings)
	}
}

// TestRulesScopedByPackage checks the driver's Match scoping: the same
// wall-clock read that detrand flags in internal/assign passes untouched
// in cmd/, which is outside the deterministic surface.
func TestRulesScopedByPackage(t *testing.T) {
	dir := seedModule(t, map[string]string{
		"cmd/tacx/main.go": `package main

import "time"

func main() { _ = time.Now() }
`,
	})
	l, modPath, err := lint.NewModuleLoader(dir)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(dir, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := lint.Run(l, paths, lint.DefaultRules())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("cmd/ wall-clock read should be out of detrand's scope, got %v", findings)
	}
}

// TestSinkerrScopeCoversCLISession: the CLI observability session in
// internal/cliutil seals the event streams for every tool, so a dropped
// Close there is flagged just as in cmd/ — while the same drop in a
// library package outside the scope is not.
func TestSinkerrScopeCoversCLISession(t *testing.T) {
	drop := func(pkg string) string {
		return `package ` + pkg + `

import "taccc/internal/obs"

func Seal(s *obs.Stream) { s.Close() }
`
	}
	dir := seedModule(t, map[string]string{
		"internal/obs/obs.go": `package obs

type Stream struct{}

func (*Stream) Close() error { return nil }
`,
		"internal/cliutil/session.go": drop("cliutil"),
		"internal/report/report.go":   drop("report"),
	})
	l, modPath, err := lint.NewModuleLoader(dir)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(dir, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := lint.Run(l, paths, lint.DefaultRules())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "sinkerr" ||
		filepath.Base(filepath.Dir(findings[0].Pos.Filename)) != "cliutil" {
		t.Fatalf("want one sinkerr finding in internal/cliutil, got %v", findings)
	}
}
