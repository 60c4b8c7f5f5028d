package cliutil

import (
	"io"
	"os"

	"taccc/internal/obs"
)

// Events owns a JSONL event stream backed by a file (or any writer) and
// guarantees that flush and close errors surface instead of silently
// truncating the stream — a command that wrote -events must fail loudly
// when the bytes did not reach disk.
type Events struct {
	sink   *obs.JSONL
	closer io.Closer
	closed bool
}

// CreateEvents creates path and returns an event stream writing to it.
func CreateEvents(path string) (*Events, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewEvents(f, f), nil
}

// NewEvents wraps an arbitrary writer (closer may be nil) — the test
// seam for failure injection.
func NewEvents(w io.Writer, c io.Closer) *Events {
	return &Events{sink: obs.NewJSONL(w), closer: c}
}

// Sink returns the underlying JSONL sink (nil on a nil receiver).
func (e *Events) Sink() *obs.JSONL {
	if e == nil {
		return nil
	}
	return e.sink
}

// Close flushes buffered events and closes the file, reporting the first
// error encountered anywhere in the stream's lifetime (including write
// errors latched during emission). It is idempotent and nil-safe, so it
// can be deferred and also called explicitly to check the error.
func (e *Events) Close() error {
	if e == nil || e.closed {
		return nil
	}
	e.closed = true
	err := e.sink.Flush()
	if e.closer != nil {
		if cerr := e.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
