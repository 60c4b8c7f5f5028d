// Package httpserv is the live half of the telemetry plane: an HTTP
// server exposing a run's one metrics Registry as Prometheus text
// (/metrics) for outside scrapers, as JSON (/snapshot) for tactop, a
// liveness probe (/healthz) and the standard pprof endpoints
// (/debug/pprof). It has no dependencies beyond the standard library,
// stays entirely read-only with respect to the registry, and is safe to
// run alongside a simulation in flight — registry metrics are lock-free
// or briefly locked, so scraping never perturbs results.
package httpserv

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"taccc/internal/obs"
)

// Handler returns the telemetry mux over reg, which holds every series
// the run has: the tool's own, and sysmon's and the SLO tracker's when
// those planes are on. A nil registry serves an empty but well-formed
// exposition. /snapshot answers 500 with the encoder's error when the
// snapshot has no JSON form (a NaN or infinite value), rather than an
// empty 200.
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. ":9477" or "127.0.0.1:0") and serves the
// telemetry handler until Close. It returns once the listener is bound,
// so Addr() is immediately valid — callers that bind port 0 can discover
// the assigned port.
func Start(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(reg)}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }
