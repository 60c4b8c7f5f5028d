package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateTopologyJSON(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "topology", "-iot", "10", "-edge", "2", "-seed", "3"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), `"nodes"`) {
		t.Fatal("no JSON nodes in output")
	}
}

func TestGenerateTopologyDOT(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "topology", "-format", "dot", "-iot", "5", "-edge", "2"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "graph topology") {
		t.Fatal("no DOT header")
	}
}

func TestGenerateInstanceToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "instance", "-iot", "12", "-edge", "3", "-o", path}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cost_ms"`) {
		t.Fatal("instance JSON missing cost matrix")
	}
}

func TestGenerateSynthetic(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "synthetic", "-n", "8", "-m", "3", "-class", "correlated"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), `"capacity"`) {
		t.Fatal("synthetic JSON missing capacity")
	}
}

func TestGenerateTopologyStats(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "topology", "-format", "stats", "-iot", "20", "-edge", "3"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"nodes:", "diameter:", "IoT->nearest edge:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadArgs(t *testing.T) {
	cases := [][]string{
		{"-kind", "bogus"},
		{"-kind", "topology", "-family", "bogus"},
		{"-kind", "topology", "-format", "bogus"},
		{"-kind", "synthetic", "-class", "bogus"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// TestUnknownPlacementIsUsageError requires exit 2 and a message naming
// -place for an unknown placement, and no output file left behind.
func TestUnknownPlacementIsUsageError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-place", "bogus", "-o", path}, &out, &errBuf); code != 2 {
		t.Fatalf("-place bogus: exit %d, want 2 (stderr %q)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-place") {
		t.Errorf("-place bogus: message %q does not name the flag", errBuf.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-place bogus left an output file (stat err %v)", err)
	}
}

// TestUnknownEnumIsUsageError: an unknown value of any enum flag exits
// 2 with a message naming the flag, and leaves no output file behind.
func TestUnknownEnumIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "bogus"},
		{"-format", "bogus"},
		{"-family", "bogus"},
		{"-kind", "instance", "-family", "bogus"},
		{"-kind", "synthetic", "-class", "bogus"},
		{"-kind", "devices", "-profile", "bogus"},
	} {
		path := filepath.Join(t.TempDir(), "out.json")
		var out, errBuf bytes.Buffer
		if code := run(append(args, "-o", path), &out, &errBuf); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errBuf.String())
		}
		if flag := args[len(args)-2]; !strings.Contains(errBuf.String(), flag+" ") {
			t.Errorf("%v: message %q does not name %s", args, errBuf.String(), flag)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v left an output file (stat err %v)", args, err)
		}
	}
}

// TestGeneratorErrorLeavesNoFile: when generation itself fails, tacgen
// exits 1 and -o is never created.
func TestGeneratorErrorLeavesNoFile(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "topology", "-iot", "-1"},
		{"-kind", "instance", "-edge", "0"},
		{"-kind", "synthetic", "-n", "0"},
		{"-kind", "devices", "-iot", "-3"},
	} {
		path := filepath.Join(t.TempDir(), "out.json")
		var out, errBuf bytes.Buffer
		if code := run(append(args, "-o", path), &out, &errBuf); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %q)", args, code, errBuf.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v left an output file (stat err %v)", args, err)
		}
	}
}

func TestHotspotPlacement(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "topology", "-place", "hotspot", "-iot", "10", "-edge", "2"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
}

func TestGenerateDevices(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-kind", "devices", "-iot", "5", "-profile", "wearables"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), `"RateHz"`) {
		t.Fatal("devices JSON missing fields")
	}
	if code := run([]string{"-kind", "devices", "-profile", "bogus"}, &out, &errBuf); code == 0 {
		t.Fatal("bogus profile accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-version"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.HasPrefix(out.String(), "tacgen ") {
		t.Fatalf("version banner %q", out.String())
	}
}

// TestBadRhoIsUsageError: a -rho outside (0,1], NaN and the infinities
// included, exits 2 naming the flag, and leaves no output file behind.
func TestBadRhoIsUsageError(t *testing.T) {
	for _, rho := range []string{"NaN", "+Inf", "-Inf", "-1", "0", "1.5", "5", "1e300"} {
		for _, kind := range []string{"instance", "synthetic"} {
			path := filepath.Join(t.TempDir(), "inst.json")
			var out, errBuf bytes.Buffer
			if code := run([]string{"-kind", kind, "-iot", "10", "-edge", "2", "-rho", rho, "-o", path}, &out, &errBuf); code != 2 {
				t.Errorf("-kind %s -rho %s: exit %d, want 2 (stderr %q)", kind, rho, code, errBuf.String())
			}
			if !strings.Contains(errBuf.String(), "-rho") {
				t.Errorf("-kind %s -rho %s: message %q does not name the flag", kind, rho, errBuf.String())
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("-kind %s -rho %s left an output file (stat err %v)", kind, rho, err)
			}
		}
	}
}
