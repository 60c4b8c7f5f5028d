// Command taclint runs the repository's custom static-analysis suite: a
// multichecker of nine analyzers that machine-enforce the determinism,
// zero-overhead-observability, hot-path-performance and parallel-safety
// invariants (see internal/lint).
//
//	detrand     no time.Now / math/rand in the deterministic packages
//	maporder    no map iteration feeding ordered output unsorted
//	nilrecv     nil-receiver guards on the obs sink/metric types
//	sinkerr     no dropped event-sink Flush/Close errors in cmd/, cliutil
//	hotloop     no gap TotalCost calls inside loops in internal/assign
//	resmon      no runtime memory/scheduler stats reads outside obs/sysmon
//	taintclock  no laundered time.Now / math/rand reached through helpers
//	parshare    par closures write only per-index slots or mutex sinks
//	fpfold      no FP accumulation in map-range or channel-range order
//
// Usage:
//
//	taclint ./...                 # the whole module (the CI gate)
//	taclint ./internal/assign     # one package
//	taclint -only detrand ./...   # a subset of analyzers
//	taclint -format sarif ./...   # SARIF 2.1.0 for CI code annotations
//
// taclint exits 0 when the tree is clean, 1 when it has findings, and 2
// on usage or load errors. Intentional violations are annotated in place
// with "//lint:allow <analyzer> <reason>".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"taccc/internal/cliutil"
	"taccc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir    = fs.String("C", "", "change to this directory (the module root to lint) before doing anything")
		only   = fs.String("only", "", "comma-separated analyzer subset to run (default: all)")
		list   = fs.Bool("list", false, "list the analyzers and exit")
		format = fs.String("format", "text", "output format: text (go-vet style) or sarif (SARIF 2.1.0)")
	)
	version := cliutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		cliutil.FprintVersion(stdout, "taclint")
		return 0
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "taclint: unknown format %q (known: sarif, text)\n", *format)
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := *dir
	if root == "" {
		root = "."
	}
	root, err := moduleRoot(root)
	if err != nil {
		fmt.Fprintf(stderr, "taclint: %v\n", err)
		return 2
	}

	rules := lint.DefaultRules()
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				keep[name] = true
			}
		}
		var kept []lint.Rule
		for _, r := range rules {
			if keep[r.Analyzer.Name] {
				kept = append(kept, r)
				delete(keep, r.Analyzer.Name)
			}
		}
		unknown := make([]string, 0, len(keep))
		for name := range keep {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		if len(unknown) > 0 {
			known := make([]string, 0, len(rules))
			for _, r := range rules {
				known = append(known, r.Analyzer.Name)
			}
			sort.Strings(known)
			fmt.Fprintf(stderr, "taclint: unknown analyzer(s): %s (known: %s)\n",
				strings.Join(unknown, ", "), strings.Join(known, ", "))
			return 2
		}
		rules = kept
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, modPath, err := lint.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "taclint: %v\n", err)
		return 2
	}
	paths, err := lint.ExpandPatterns(root, modPath, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "taclint: %v\n", err)
		return 2
	}
	findings, err := lint.Run(loader, paths, rules)
	if err != nil {
		fmt.Fprintf(stderr, "taclint: %v\n", err)
		return 2
	}
	if *format == "sarif" {
		// SARIF is always a complete document — a clean tree emits an
		// empty results array, which CI still uploads — and the exit code
		// keeps carrying the verdict.
		if err := lint.WriteSARIF(stdout, findings, root); err != nil {
			fmt.Fprintf(stderr, "taclint: %v\n", err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	if len(findings) > 0 {
		lint.Print(stdout, findings, root)
		return 1
	}
	return 0
}

// moduleRoot resolves dir (possibly a package subdirectory) to the
// nearest enclosing directory holding a go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
		d = parent
	}
}
