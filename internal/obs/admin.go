package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// AdminServer is the always-on introspection surface over a long-running
// daemon (the yggdrasil-style admin socket, realized as plain HTTP): it
// mounts the registry at /metrics, liveness and readiness probes at /healthz
// and /readyz, and the full net/http/pprof suite at /debug/pprof/ — so a
// live plserve can be profiled, health-checked and scraped without a
// restart. The admin server shares nothing with the serving data path
// beyond the registered atomics, so a slow scrape cannot stall a query.
type AdminServer struct {
	// Healthz, when non-nil, gates /healthz: a non-nil error renders 503
	// with the message. Nil means "process is up" always answers 200.
	Healthz func() error
	// Readyz, when non-nil, gates /readyz the same way — the hook for
	// "listening and not draining" daemon state.
	Readyz func() error

	reg  *Registry
	mux  *http.ServeMux
	srv  *http.Server
	ln   net.Listener
	sink *TraceSink
}

// NewAdminServer builds an admin server over reg.
func NewAdminServer(reg *Registry) *AdminServer {
	a := &AdminServer{reg: reg, mux: http.NewServeMux()}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { probe(w, a.Healthz) })
	a.mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { probe(w, a.Readyz) })
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		a.handleTraceRing(w, true)
	})
	a.mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		a.handleTraceRing(w, false)
	})
	a.srv = &http.Server{Handler: a.mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

// SetTraceSink attaches the daemon's trace sink, enabling /debug/traces
// (sampled ring + histogram exemplars) and /debug/slowlog (threshold-
// captured frames). Call before Serve; without a sink both endpoints answer
// an empty document.
func (a *AdminServer) SetTraceSink(s *TraceSink) { a.sink = s }

// handleTraceRing renders one of the sink's rings as JSON: the sampled ring
// (with histogram exemplars joined in from the registry) or the slowlog.
func (a *AdminServer) handleTraceRing(w http.ResponseWriter, sampled bool) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var ring *TraceRing
	var reg *Registry
	if a.sink != nil {
		if sampled {
			ring, reg = a.sink.Ring, a.reg
		} else {
			ring = a.sink.Slow
		}
	}
	_ = WriteTracesJSON(w, ring, reg)
}

// Handler returns the admin mux, for mounting under an existing server.
func (a *AdminServer) Handler() http.Handler { return a.mux }

// Listen binds addr (port 0 picks a free port) and returns the resolved
// address. Call Serve afterwards; the split lets callers print the resolved
// port before serving.
func (a *AdminServer) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a.ln = ln
	return ln.Addr(), nil
}

// Serve answers admin requests on the listener bound by Listen until
// Shutdown. It returns http.ErrServerClosed after a clean shutdown.
func (a *AdminServer) Serve() error {
	if a.ln == nil {
		return fmt.Errorf("obs: Serve before Listen")
	}
	return a.srv.Serve(a.ln)
}

// Shutdown gracefully stops the admin server, letting in-flight scrapes
// finish until ctx expires.
func (a *AdminServer) Shutdown(ctx context.Context) error {
	return a.srv.Shutdown(ctx)
}

func (a *AdminServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.reg.WritePrometheus(w)
}

// probe renders a health/readiness check: 200 "ok" or 503 with the error.
func probe(w http.ResponseWriter, check func() error) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if check != nil {
		if err := check(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unavailable: %v\n", err)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}
