package main

import (
	"bytes"
	"os"
	"path/filepath"
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
