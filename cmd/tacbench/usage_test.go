package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestUsageErrorsLeaveNoArtifacts: -list, an unknown experiment and a bad
// -sysmon-interval end before any work and create no archive directory.
func TestUsageErrorsLeaveNoArtifacts(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-list"}, 0},
		{[]string{"-exp", "nope"}, 2},
		{[]string{"-sysmon", "-sysmon-interval", "0s"}, 2},
	}
	for _, tc := range cases {
		archive := filepath.Join(t.TempDir(), "run")
		var out, errBuf bytes.Buffer
		if code := run(append(tc.args, "-archive", archive), &out, &errBuf); code != tc.code {
			t.Errorf("args %v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, errBuf.String())
		}
		if _, err := os.Stat(archive); !os.IsNotExist(err) {
			t.Errorf("args %v: archive exists after a usage exit", tc.args)
		}
	}
}
