package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Handler serves the registry in Prometheus text exposition format.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
}

// Slow-client bounds of the metrics listener, the ones citroend and
// citroenrunner set: a client that never finishes its request header, or
// idles on a kept-alive connection, is dropped instead of holding a
// connection and a goroutine. There is no write timeout, because
// /debug/pprof/profile streams for its seconds parameter. Variables so a
// test can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// MetricsServer is the /metrics + /debug/pprof/ listener returned by Serve.
// Callers own its lifecycle: Shutdown (graceful, in-flight scrapes finish)
// or Close (immediate) must be called on exit so the listener and its
// goroutine are released instead of leaking past the run.
type MetricsServer struct {
	srv  *http.Server
	addr string

	mu     sync.Mutex
	closed bool
}

// Serve listens on addr and serves /metrics (Prometheus text format) plus
// the net/http/pprof profiling endpoints under /debug/pprof/. Addr resolves
// ":0"-style listen requests for tests and log lines.
func Serve(addr string, m *Metrics) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &MetricsServer{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout},
		addr: ln.Addr().String(),
	}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Addr returns the bound listen address.
func (s *MetricsServer) Addr() string { return s.addr }

// Shutdown gracefully stops the server, waiting (up to ctx's deadline) for
// in-flight requests; a nil ctx applies a 2-second default deadline. Safe to
// call multiple times and after Close.
func (s *MetricsServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	return s.srv.Shutdown(ctx)
}

// Close stops the server immediately, dropping in-flight requests.
func (s *MetricsServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.srv.Close()
}
