package cliutil

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"taccc/internal/obs"
)

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

type failCloser struct{ err error }

func (f failCloser) Close() error { return f.err }

func TestEventsReportsWriteErrors(t *testing.T) {
	wantErr := errors.New("disk full")
	e := NewEvents(failWriter{err: wantErr}, nil)
	obs.Emit(e.Sink(), "span", map[string]interface{}{"trace": 1})
	if err := e.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close() = %v, want nil (idempotent)", err)
	}
}

func TestEventsReportsCloseErrors(t *testing.T) {
	wantErr := errors.New("close failed")
	var buf bytes.Buffer
	e := NewEvents(&buf, failCloser{err: wantErr})
	obs.Emit(e.Sink(), "iter", nil)
	if err := e.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	if !strings.Contains(buf.String(), `"kind":"iter"`) {
		t.Fatalf("event not flushed before close: %q", buf.String())
	}
}

func TestEventsNilSafe(t *testing.T) {
	var e *Events
	if e.Sink() != nil {
		t.Fatal("nil Events should yield a nil sink")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("nil Close() = %v", err)
	}
}

func TestCreateEventsRoundTrip(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	e, err := CreateEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	obs.Emit(e.Sink(), "span", map[string]interface{}{"trace": 7})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"trace":7`) {
		t.Fatalf("event lost: %q", data)
	}
}
