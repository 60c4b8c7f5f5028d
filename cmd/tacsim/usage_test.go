package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestUsageErrorsLeaveNoArtifacts: an unknown algorithm or discipline or
// a bad observability flag exits 2 before the scenario is built or
// solved, creating no archive directory and no -trace-out file.
func TestUsageErrorsLeaveNoArtifacts(t *testing.T) {
	cases := [][]string{
		{"-algo", "nope"},
		{"-discipline", "bogus"},
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
