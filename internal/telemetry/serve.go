package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Server exposes live observability endpoints for a running simulation or
// a live unapnode daemon: Prometheus metrics text at /metrics and the
// net/http/pprof suite under /debug/pprof/. It exists for multi-minute
// sweeps, long `unapctl run` sessions, and real-socket clusters, where
// "how far along is it and where is the CPU going" should not require
// waiting for the closing summary.
type Server struct {
	ln  net.Listener
	srv *http.Server
	err chan error

	closeOnce sync.Once
	closeErr  error
	// stop detaches the context watcher installed by ServeContext, so a
	// plain Close does not leak its goroutine.
	stop context.CancelFunc
}

// Serve starts an HTTP server on addr (e.g. "127.0.0.1:0" or ":0" for an
// ephemeral port — Addr reports what was actually bound). Every /metrics
// request renders src() with MetricsSnapshot.PrometheusText; pass a
// sampling Recorder's LatestSnapshot for a live view, or a
// Registry.Snapshot for a direct one (safe now that the metrics
// accumulators tolerate concurrent readers). A nil src serves an empty
// snapshot — pprof-only mode. The server runs on its own goroutine;
// Close shuts it down.
func Serve(addr string, src func() MetricsSnapshot) (*Server, error) {
	return ServeContext(context.Background(), addr, src)
}

// ServeContext is Serve bound to a context: when ctx is cancelled the
// server closes itself and releases the port, so callers can tie the
// metrics endpoint to a daemon's lifetime instead of tracking the Server
// handle. Close remains safe to call (before or after cancellation).
func ServeContext(ctx context.Context, addr string, src func() MetricsSnapshot) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		snap := newMetricsSnapshot()
		if src != nil {
			snap = src()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, snap.PrometheusText())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}, err: make(chan error, 1)}
	go func() { s.err <- s.srv.Serve(ln) }()

	watchCtx, stop := context.WithCancel(ctx)
	s.stop = stop
	go func() {
		<-watchCtx.Done()
		s.Close()
	}()
	return s, nil
}

// Addr returns the listener's resolved address ("127.0.0.1:43125") —
// with ":0" this is where the ephemeral port shows up.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and releases the port. It is idempotent
// and safe to call concurrently with (or after) context cancellation.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.stop()
		s.closeErr = s.srv.Close()
		<-s.err // wait for the serve goroutine to exit
	})
	return s.closeErr
}
