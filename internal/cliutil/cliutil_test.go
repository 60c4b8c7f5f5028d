package cliutil

import (
	"bytes"
	"strings"
	"testing"
)

func TestVersionNonEmpty(t *testing.T) {
	v := Version()
	if v == "" {
		t.Fatal("empty version")
	}
}

func TestFprintVersion(t *testing.T) {
	var buf bytes.Buffer
	FprintVersion(&buf, "tacsolve")
	out := buf.String()
	if !strings.HasPrefix(out, "tacsolve ") || !strings.Contains(out, "(taccc)") {
		t.Fatalf("banner %q missing tool name or suite tag", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("banner should end with a newline")
	}
}
