package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Rule binds one analyzer to the set of packages it polices. Scoping
// lives here, not in the analyzers, so each analyzer stays a pure
// package-in/diagnostics-out function that fixtures can drive directly.
type Rule struct {
	Analyzer *Analyzer
	// Match reports whether the analyzer applies to the package with the
	// given import path.
	Match func(pkgPath string) bool
}

// DeterministicPackages are the module packages whose results must be a
// pure function of (seed, configuration): everything the solvers,
// generators and simulators touch. cmd/ is deliberately outside —
// commands measure wall-clock solve time by design. Matching is by
// prefix, so subpackages inherit the contract.
var DeterministicPackages = []string{
	"taccc/internal/assign",
	"taccc/internal/gap",
	"taccc/internal/topology",
	"taccc/internal/experiment",
	"taccc/internal/sim",
	"taccc/internal/cluster",
	"taccc/internal/workload",
}

// ClockDisciplinePackages extends detrand's wall-clock scope (not its
// math/rand scope — these packages draw no randomness) to the plumbing
// that sits between the solvers and the wall: obs, whose Clock is the
// single sanctioned entry point for real time (clock.go carries the
// repository's only //lint:allow detrand annotations), par, whose
// workers must never pace themselves off timers, and obs/slo, whose
// rolling windows advance exclusively on sim time — a wall-clock read
// there would silently decouple window boundaries from the engine and
// break the plane's byte-identical determinism contract. Matched
// exactly, not by prefix: obs/runlog stamps archive manifests with real
// timestamps and stays outside.
var ClockDisciplinePackages = []string{
	"taccc/internal/obs",
	"taccc/internal/obs/slo",
	"taccc/internal/par",
}

// DefaultRules encodes the repository policy:
//
//   - detrand over the deterministic packages plus the clock-discipline
//     packages (internal/xrand itself is the one sanctioned math/rand
//     consumer and is not listed; obs.Clock is the one sanctioned
//     wall-clock consumer and annotates its two reads in place);
//   - maporder everywhere — ordered output can leak from any layer;
//   - nilrecv over internal/obs, where the nil-safe sink/metric types
//     live;
//   - sinkerr over cmd/ and internal/cliutil, where event streams are
//     opened and sealed for the CLIs and must fail loudly;
//   - hotloop over internal/assign, where every solver inner loop is
//     expected to price moves through the incremental gap.Evaluator;
//   - resmon everywhere except internal/obs/sysmon, the one sanctioned
//     consumer of runtime memory/scheduler statistics (the bench alloc
//     pass annotates its in-place measurement reads);
//   - taintclock over the same scope as detrand — it is detrand's
//     interprocedural closure, catching wall-clock and math/rand reads
//     laundered through helpers in any package (internal/xrand stays the
//     sanctioned randomness source and exports no taint);
//   - parshare everywhere — a par entry point can be called from any
//     layer, and the worker-write discipline travels with the call;
//   - fpfold everywhere — an FP fold in map or arrival order breaks
//     byte-identical output no matter which layer computes it.
func DefaultRules() []Rule {
	inDeterministic := func(path string) bool {
		for _, p := range DeterministicPackages {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
	inDetrandScope := func(path string) bool {
		if inDeterministic(path) {
			return true
		}
		for _, p := range ClockDisciplinePackages {
			if path == p {
				return true
			}
		}
		return false
	}
	return []Rule{
		{Analyzer: Detrand, Match: inDetrandScope},
		{Analyzer: Maporder, Match: func(string) bool { return true }},
		{Analyzer: Nilrecv, Match: func(path string) bool { return path == "taccc/internal/obs" }},
		{Analyzer: Sinkerr, Match: func(path string) bool {
			return strings.HasPrefix(path, "taccc/cmd/") || path == "taccc/internal/cliutil"
		}},
		{Analyzer: Hotloop, Match: func(path string) bool {
			return path == "taccc/internal/assign" || strings.HasPrefix(path, "taccc/internal/assign/")
		}},
		{Analyzer: Resmon, Match: func(path string) bool {
			return path != "taccc/internal/obs/sysmon"
		}},
		{Analyzer: Taintclock, Match: inDetrandScope},
		{Analyzer: Parshare, Match: func(string) bool { return true }},
		{Analyzer: Fpfold, Match: func(string) bool { return true }},
	}
}

// Finding is one diagnostic tagged with its analyzer and resolved
// position, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Run loads every package named by importPaths through l, applies each
// rule's analyzer to the packages it matches, filters the results
// through the //lint:allow index, and returns the surviving findings
// sorted by file, line, column and analyzer. Malformed allow directives
// are themselves findings (analyzer "allow") in every package, so a typo
// cannot silently disable a check.
func Run(l *Loader, importPaths []string, rules []Rule) ([]Finding, error) {
	findings, _, err := RunWithFacts(l, importPaths, rules)
	return findings, err
}

// RunWithFacts is Run, additionally returning the fact store the run
// populated, for linttest fact assertions and the facts-layer tests.
//
// Analyzers that declare UsesFacts are interprocedural: before such an
// analyzer visits a package, the driver runs it over the package's
// project-internal import closure, dependency-first, so facts exported
// for a helper in an unscoped package (say, a two-hop time.Now wrapper)
// are already in the store when the scoped importer is analyzed. Each
// (analyzer, package) pair runs at most once per driver run; diagnostics
// produced while analyzing a dependency are cached and surface only if
// that package is itself a lint target whose rule matches.
func RunWithFacts(l *Loader, importPaths []string, rules []Rule) ([]Finding, *FactStore, error) {
	// The known-analyzer set for allow validation spans the whole suite,
	// not just the active rules: running `taclint -only detrand` over a
	// tree annotated with //lint:allow hotloop must not turn those
	// reviewed annotations into "unknown analyzer" findings.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, r := range rules {
		known[r.Analyzer.Name] = true
	}

	store := NewFactStore()
	diagCache := make(map[string]map[string][]Diagnostic) // analyzer name -> package path -> diagnostics
	var analyze func(a *Analyzer, pkg *Package) ([]Diagnostic, error)
	analyze = func(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
		byPkg := diagCache[a.Name]
		if byPkg == nil {
			byPkg = make(map[string][]Diagnostic)
			diagCache[a.Name] = byPkg
		}
		if diags, ok := byPkg[pkg.Path]; ok {
			return diags, nil
		}
		// Go forbids import cycles, so the recursion terminates; marking
		// the cache before descending would only mask a loader bug.
		if a.UsesFacts {
			for _, dep := range projectImports(l, pkg) {
				depPkg, err := l.Load(dep)
				if err != nil {
					return nil, err
				}
				if _, err := analyze(a, depPkg); err != nil {
					return nil, err
				}
			}
		}
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      l.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		byPkg[pkg.Path] = diags
		return diags, nil
	}

	var findings []Finding
	for _, path := range importPaths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, nil, err
		}
		allows, bad := parseAllows(l.Fset, pkg.Files, known)
		for _, d := range bad {
			findings = append(findings, Finding{Analyzer: "allow", Pos: l.Fset.Position(d.Pos), Message: d.Message})
		}
		for _, r := range rules {
			if !r.Match(path) {
				continue
			}
			diags, err := analyze(r.Analyzer, pkg)
			if err != nil {
				return nil, nil, err
			}
			for _, d := range diags {
				pos := l.Fset.Position(d.Pos)
				if allows.suppresses(r.Analyzer.Name, pos.Line) {
					continue
				}
				findings = append(findings, Finding{Analyzer: r.Analyzer.Name, Pos: pos, Message: d.Message})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, store, nil
}

// projectImports lists pkg's direct imports that the loader can resolve
// from source — the module- or fixture-internal dependencies whose facts
// an interprocedural analyzer needs — sorted for deterministic analysis
// order.
func projectImports(l *Loader, pkg *Package) []string {
	var out []string
	for _, imp := range pkg.Types.Imports() {
		if l.resolvable(imp.Path()) {
			out = append(out, imp.Path())
		}
	}
	sort.Strings(out)
	return out
}

// Print writes findings one per line in the go-vet style
// "file:line:col: message [analyzer]", with file paths relative to dir
// when possible.
func Print(w io.Writer, findings []Finding, dir string) {
	for _, f := range findings {
		name := f.Pos.Filename
		if dir != "" {
			if rel, ok := strings.CutPrefix(name, dir+"/"); ok {
				name = rel
			}
		}
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", name, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
}
