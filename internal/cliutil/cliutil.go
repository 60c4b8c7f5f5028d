// Package cliutil holds the pieces shared by the taccc commands:
// build-info version reporting, the -events file stream, and Obs, the
// one observability session tacsolve, tacsim and tacbench run under.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"runtime/debug"
)

// Version returns a human-readable version string from the binary's
// embedded build info: the module version when the binary was built with
// `go install module@version`, otherwise the VCS revision (12 hex chars,
// "+dirty" when the tree had local changes), otherwise "devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// FprintVersion writes the standard one-line version banner for tool.
func FprintVersion(w io.Writer, tool string) {
	fmt.Fprintf(w, "%s %s (taccc)\n", tool, Version())
}

// VersionFlag registers the standard -version flag on fs; every taccc
// tool exposes it and prints the shared FprintVersion banner.
func VersionFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print version and exit")
}
