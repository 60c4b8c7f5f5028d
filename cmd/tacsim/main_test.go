package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSimulateSmall(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-iot", "20", "-edge", "3", "-algo", "greedy",
		"-duration", "5", "-warmup", "1", "-seed", "2",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"assignment:", "completed:", "latency:", "deadlines:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSimulateWithFailure(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-iot", "20", "-edge", "3", "-algo", "greedy",
		"-duration", "6", "-warmup", "1", "-fail-edge", "0", "-fail-at", "3",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "injecting failure") {
		t.Fatal("failure injection not reported")
	}
}

func TestSimulatePSDiscipline(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-iot", "15", "-edge", "3", "-algo", "greedy",
		"-duration", "4", "-warmup", "1", "-discipline", "ps", "-max-queue", "50",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "latency:") {
		t.Fatal("no latency line")
	}
}

func TestSimulateErrors(t *testing.T) {
	cases := [][]string{
		{"-iot", "0"},
		{"-algo", "bogus"},
		{"-discipline", "bogus"},
		{"-fail-edge", "99", "-iot", "10", "-edge", "2", "-duration", "3", "-warmup", "1"},
		{"-jitter", "1000", "-iot", "10", "-edge", "2", "-duration", "3", "-warmup", "1"},
		{"-bogus-flag"},
	}
	// Without a span sink: a sample rate outside [0, 1] and a payload
	// that is NaN or negative.
	for _, bad := range [][]string{
		{"-trace-sample", "2"}, {"-trace-sample", "NaN"}, {"-trace-sample", "-1"},
		{"-payload", "NaN"}, {"-payload", "-5"},
	} {
		cases = append(cases, append([]string{"-iot", "10", "-edge", "2", "-duration", "3", "-warmup", "1"}, bad...))
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}
