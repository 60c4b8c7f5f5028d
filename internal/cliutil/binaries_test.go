package cliutil

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// binaries is the full CLI surface; every tool must answer -version with
// the shared banner so scripts can probe any of them uniformly.
var binaries = []string{
	"tacbench",
	"tacgen",
	"taclint",
	"tacreport",
	"tacsim",
	"tacsolve",
	"tactop",
	"tactrace",
}

// moduleRoot locates the repository root (the directory holding go.mod)
// so the test can build the cmd/ packages regardless of the test cwd.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestAllBinariesAnswerVersion builds every tool and shells each with
// -version, asserting the uniform "<tool> <version> (taccc)" banner.
func TestAllBinariesAnswerVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all binaries; skipped in -short")
	}
	root := moduleRoot(t)
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	for _, tool := range binaries {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			bin := filepath.Join(binDir, tool)
			if _, err := os.Stat(bin); err != nil {
				t.Fatalf("binary not built: %v", err)
			}
			out, err := exec.Command(bin, "-version").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -version: %v\n%s", tool, err, out)
			}
			want := regexp.MustCompile(`^` + tool + ` \S+ \(taccc\)\n$`)
			if !want.Match(out) {
				t.Fatalf("%s -version banner %q does not match %s", tool, out, want)
			}
		})
	}
}

// flagSurface pins the observability-session tools' flags: one
// "name default" line per flag as `-h` lists them, with the default as
// flag.PrintDefaults renders it (absent for zero values). N stands for
// the machine-dependent GOMAXPROCS default.
var flagSurface = map[string]string{
	"tacsolve": `algo "qlearning"
archive
cpuprofile
edge
events
family "hierarchical"
instance
iot
list
listen
memprofile
metrics-out
o
progress
rho 0.7
seed 1
slo
slo-window 1
sysmon
sysmon-interval 250ms
trace-out
version
workers N`,
	"tacsim": `algo "qlearning"
archive
cpuprofile
discipline "fifo"
duration 60
edge 10
events
fail-at 30
fail-edge -1
family "hierarchical"
iot 100
jitter
linger
listen
max-queue
memprofile
metrics-out
payload 4
progress
rho 0.7
seed 1
slo
slo-window 1
sysmon
sysmon-interval 250ms
trace
trace-out
trace-sample
version
warmup 5
workers`,
	"tacbench": `archive
cpuprofile
csv
events
exp "all"
json
list
listen
md
memprofile
metrics-out
outdir
progress
quick
reps
seed 1
sysmon
sysmon-interval 250ms
trace-out
version
workers N`,
}

var defaultRE = regexp.MustCompile(`\(default (.*)\)$`)

// TestFlagSurface builds tacsolve, tacsim and tacbench and checks that
// each lists exactly the pinned flag names with the pinned defaults, so
// moving flag registration between a tool and cliutil can neither add,
// drop nor re-default a flag.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	binDir := t.TempDir()
	build := exec.Command("go", "build", "-o", binDir, "./cmd/tacsolve", "./cmd/tacsim", "./cmd/tacbench")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for tool, want := range flagSurface {
		// -h exits 2 after printing the usage; only the listing matters.
		out, _ := exec.Command(filepath.Join(binDir, tool), "-h").CombinedOutput()
		var got []string
		lines := strings.Split(string(out), "\n")
		for i, line := range lines {
			if !strings.HasPrefix(line, "  -") {
				continue
			}
			entry := strings.Fields(line)[0][1:]
			if i+1 < len(lines) {
				if m := defaultRE.FindStringSubmatch(lines[i+1]); m != nil {
					if tool != "tacsim" && entry == "workers" {
						m[1] = "N"
					}
					entry += " " + m[1]
				}
			}
			got = append(got, entry)
		}
		if strings.Join(got, "\n") != want {
			t.Errorf("%s flags:\n%s\nwant:\n%s", tool, strings.Join(got, "\n"), want)
		}
	}
}
