package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsLeaveNoArtifacts: invocations that end before any work
// (-list, a missing or mixed mode, an unknown algorithm, a bad
// observability flag) keep their exit code and create no archive
// directory and no -trace-out file.
func TestUsageErrorsLeaveNoArtifacts(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-list"}, 0},
		{[]string{"-sysmon"}, 2},
		{[]string{"-iot", "20"}, 2},
		{[]string{"-iot", "20", "-edge", "3", "-instance", "x.json"}, 2},
		{[]string{"-iot", "20", "-edge", "3", "-algo", "nope", "-slo", "p95<=20"}, 2},
		{[]string{"-iot", "20", "-edge", "3", "-slo", "p95>=20"}, 2},
		{[]string{"-iot", "20", "-edge", "3", "-sysmon", "-sysmon-interval", "0s"}, 2},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		archive, trace := filepath.Join(dir, "run"), filepath.Join(dir, "trace.json")
		args := append(tc.args, "-archive", archive, "-trace-out", trace)
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != tc.code {
			t.Errorf("args %v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, errBuf.String())
		}
		for _, p := range []string{archive, trace} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("args %v: %s exists after a usage exit", tc.args, filepath.Base(p))
			}
		}
	}
}

// TestBadRhoIsUsageError: a -rho outside (0, 1] other than the default's
// 0, NaN and the infinities included, exits 2 naming the flag before
// anything is built or solved.
func TestBadRhoIsUsageError(t *testing.T) {
	for _, rho := range []string{"NaN", "+Inf", "-Inf", "-1", "1.5", "1e300"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-iot", "10", "-edge", "2", "-algo", "greedy", "-rho", rho}, &out, &errBuf); code != 2 {
			t.Errorf("-rho %s: exit %d, want 2 (stderr %q)", rho, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "-rho") {
			t.Errorf("-rho %s: message %q does not name the flag", rho, errBuf.String())
		}
		if out.Len() != 0 {
			t.Errorf("-rho %s: usage exit printed results: %q", rho, out.String())
		}
	}
}

// TestLPRoundingOverBudget: at rl-solve's shape, 2000 × 50, where the
// dense LP never returned, -algo lp-rounding exits 1 naming its size
// budget; under -algo all (at 300 × 10, also over the budget) its row
// prints as failed and every other row is solved.
func TestLPRoundingOverBudget(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-iot", "2000", "-edge", "50", "-rho", "0.85", "-algo", "lp-rounding"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "size budget") {
		t.Errorf("stderr %q does not name the LP size budget", errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-iot", "300", "-edge", "10", "-algo", "all"}, &out, &errBuf); code != 0 {
		t.Fatalf("-algo all: exit %d (stderr %q)", code, errBuf.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] == "algorithm" || f[0] == "---------" || f[0] == "lower" {
			continue
		}
		if failed := f[1] == "-" && f[3] == "no"; failed != (f[0] == "lp-rounding") {
			t.Errorf("-algo all row %q: failed = %v", line, failed)
		}
	}
}
