package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"taccc/internal/lint"
)

// testOnlyAllow names the functions and packages that may ship although
// only tests call them, each with its reason. A key is a function's
// types.Func.FullName ("(*taccc/internal/obs.ManualClock).Set") or a
// package path, which covers every function the package declares. What an
// allowed function calls is kept with it. An entry whose functions gain a
// caller outside tests fails the check until it is dropped.
var testOnlyAllow = map[string]string{
	"taccc/internal/lint/linttest":                             "the analyzer fixture runner, a harness that only analyzer tests import",
	"taccc/internal/obs.NewManualClock":                        "the deterministic test clock that tests in four packages share",
	"(*taccc/internal/obs.ManualClock).Advance":                "steps the shared test clock",
	"(*taccc/internal/obs.ManualClock).Set":                    "sets the shared test clock",
	"(*taccc/internal/cluster.Simulator).ScheduleEdgeRecovery": "two pinned simulator golden streams use it; it goes with their re-pin (ROADMAP item 6)",
	"(*taccc/internal/online.Controller).Leave":                "stays until T4's churn trace adds leaves (ROADMAP item 6)",
	"taccc/internal/gap.LPBound":                               "stays until the LP bound work lands (ROADMAP item 4)",
}

// TestNoAPIOnlyTestsCall is the gate for shipping only what something
// runs: every function and method declared in the module's non-test files
// must be reachable from non-test code. The roots are main and init, the
// root package taccc (the public facade that examples and outside users
// import), methods that satisfy an interface (they run through it), and
// any reference outside a function body. A function whose only callers
// are themselves unreachable is flagged with them.
func TestNoAPIOnlyTestsCall(t *testing.T) {
	flagged, stale := testOnlyAPI(t, repoRoot(t), testOnlyAllow)
	for _, f := range flagged {
		t.Errorf("%s has no caller outside tests: delete it, move it into the test files that use it, or allow it with a reason", f)
	}
	for _, key := range stale {
		t.Errorf("testOnlyAllow[%q]: nothing it names needs the entry; drop it", key)
	}
}

// TestNoAPIOnlyTestsCallSeeded proves the check has teeth on a throwaway
// module: a function only a test calls, and a helper only it calls, are
// flagged, as are a function that only calls itself and a generic
// type's unused method; a function main calls, a method that satisfies an
// interface and a generic method main calls on an instance are not.
func TestNoAPIOnlyTestsCallSeeded(t *testing.T) {
	dir := seedModule(t, map[string]string{
		"cmd/tool/main.go": `package main

import "taccc/internal/calc"

func main() { println(calc.Used(3), calc.Name{}.String(), calc.Box[int]{}.Get()) }
`,
		"internal/calc/calc.go": `package calc

// Used is called from main.
func Used(n int) int {
	if n == 0 {
		return 0
	}
	return Used(n-1) + 1
}

// OnlyTests has no caller outside calc_test.go.
func OnlyTests() int { return helper() }

func helper() int { return 1 }

// Name satisfies fmt.Stringer.
type Name struct{}

func (Name) String() string { return "name" }

// Loop recurses into itself and nothing else calls it.
func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// Box is generic: main calls Get on an instance of it, nothing calls Put.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b *Box[T]) Put(v T) { b.v = v }
`,
		"internal/calc/calc_test.go": `package calc

import "testing"

func TestOnly(t *testing.T) {
	if OnlyTests() != 1 || Loop(2) != 0 {
		t.Fatal("calc")
	}
}
`,
	})
	got, stale := testOnlyAPI(t, dir, map[string]string{
		"taccc/internal/calc.Used": "main calls it, so the entry is stale",
	})
	if len(stale) != 1 || stale[0] != "taccc/internal/calc.Used" {
		t.Errorf("stale allow entries = %v, want [taccc/internal/calc.Used]", stale)
	}
	want := []string{
		"internal/calc/calc.go:12: taccc/internal/calc.OnlyTests",
		"internal/calc/calc.go:14: taccc/internal/calc.helper",
		"internal/calc/calc.go:22: taccc/internal/calc.Loop",
		"internal/calc/calc.go:34: (*taccc/internal/calc.Box[T]).Put",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// testOnlyAPI loads every non-test package of the module at root and
// returns, sorted, "file:line: name" for each declared function or method
// that neither a root nor an allowed function reaches, and the allow keys
// whose functions the roots reach anyway (or that name nothing declared).
func testOnlyAPI(t *testing.T, root string, allow map[string]string) (flagged, stale []string) {
	t.Helper()
	l, modPath, err := lint.NewModuleLoader(root)
	if err != nil {
		t.Fatalf("NewModuleLoader: %v", err)
	}
	paths, err := lint.ExpandPatterns(root, modPath, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("Load %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}

	decls := make(map[*types.Func]*ast.FuncDecl)
	calls := make(map[*types.Func][]*types.Func) // references in each declared function
	allowed := make(map[string][]*types.Func)    // allow key -> the functions it names
	var roots []*types.Func
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				decls[fn] = fd
				if pkg.Path == modPath || (fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
					roots = append(roots, fn)
				}
				for _, key := range []string{fn.FullName(), pkg.Path} {
					if allow[key] != "" {
						allowed[key] = append(allowed[key], fn)
					}
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if user := enclosing(pkg, id.Pos()); user != nil {
				calls[user] = append(calls[user], fn)
			} else {
				roots = append(roots, fn)
			}
		}
	}
	roots = append(roots, interfaceMethods(pkgs)...)

	reach := func(from []*types.Func) map[*types.Func]bool {
		live := make(map[*types.Func]bool)
		stack := append([]*types.Func(nil), from...)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !live[fn] {
				live[fn] = true
				stack = append(stack, calls[fn]...)
			}
		}
		return live
	}
	live := reach(roots)
	for key := range allow {
		needed := false
		for _, fn := range allowed[key] {
			if !live[fn] {
				needed = true
				roots = append(roots, fn)
			}
		}
		if !needed {
			stale = append(stale, key)
		}
	}
	live = reach(roots)

	for fn, fd := range decls {
		if live[fn] {
			continue
		}
		pos := l.Fset.Position(fd.Name.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		flagged = append(flagged, filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line)+": "+fn.FullName())
	}
	sort.Strings(flagged)
	sort.Strings(stale)
	return flagged, stale
}

// enclosing returns the declared function whose declaration holds pos,
// or nil when pos lies outside every function declaration.
func enclosing(pkg *lint.Package, pos token.Pos) *types.Func {
	for _, file := range pkg.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return pkg.Info.Defs[fd.Name].(*types.Func)
			}
		}
	}
	return nil
}

// interfaceMethods returns the methods of the module's non-generic named
// types that implement a method of some interface declared in the
// module, in a package it imports, or written inline in its code: such
// a method runs through the interface, where no reference names it. A
// generic type's methods count only through references to them.
func interfaceMethods(pkgs []*lint.Package) []*types.Func {
	byMethod := make(map[string][]*types.Interface)
	addIface := func(iface *types.Interface) {
		if !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(iface)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	var named []*types.Named
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if iface, ok := tv.Type.(*types.Interface); ok {
				addIface(iface)
			}
		}
		for _, name := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && n.NumMethods() > 0 {
					named = append(named, n)
				}
			}
		}
	}
	var out []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			for _, iface := range byMethod[m.Name()] {
				if types.Implements(n, iface) || types.Implements(ptr, iface) {
					out = append(out, m)
					break
				}
			}
		}
	}
	return out
}
