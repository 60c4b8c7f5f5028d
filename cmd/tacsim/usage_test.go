package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsLeaveNoArtifacts: an unknown algorithm, discipline or
// flag (such as the retired CSV -trace) or a bad observability flag exits
// 2 before the scenario is built or solved, creating no archive directory
// and no -trace-out file.
func TestUsageErrorsLeaveNoArtifacts(t *testing.T) {
	cases := [][]string{
		{"-algo", "nope"},
		{"-discipline", "bogus"},
		{"-trace", "x.csv"},
		{"-slo", "p95>=20"},
		{"-slo", "p95<=20", "-slo-window", "0"},
		{"-sysmon", "-sysmon-interval", "-1s"},
	}
	for _, extra := range cases {
		dir := t.TempDir()
		archive, trace := filepath.Join(dir, "run"), filepath.Join(dir, "trace.json")
		args := append([]string{"-iot", "10", "-edge", "2", "-duration", "1", "-archive", archive, "-trace-out", trace}, extra...)
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", extra, code, errBuf.String())
		}
		if out.Len() != 0 {
			t.Errorf("args %v: usage exit printed results: %q", extra, out.String())
		}
		for _, p := range []string{archive, trace} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("args %v: %s exists after a usage exit", extra, filepath.Base(p))
			}
		}
	}
}

// TestBadRhoIsUsageError: a -rho outside (0,1] other than the default's
// 0, NaN and the infinities included, exits 2 naming the flag before
// anything runs.
func TestBadRhoIsUsageError(t *testing.T) {
	for _, rho := range []string{"NaN", "+Inf", "-Inf", "-1", "1.5", "1e300"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-iot", "10", "-edge", "2", "-duration", "1", "-rho", rho}, &out, &errBuf); code != 2 {
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
