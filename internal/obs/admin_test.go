package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startAdmin boots an admin server on a free port and returns its base URL.
func startAdmin(t *testing.T, a *AdminServer) string {
	t.Helper()
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := a.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	})
	return "http://" + addr.String()
}

// adminClient is the tests' own HTTP client, one connection per request.
// http.DefaultClient pools connections, and when concurrent requests race a
// fresh dial against a pooled connection coming free, the losing dial is left
// connected with no request on it; http.Server.Shutdown counts such a
// connection as busy for its first five seconds, which is the whole timeout
// startAdmin's cleanup allows.
var adminClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := adminClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	var served Counter
	served.Add(123)
	reg.Counter("admin_test_served_total", "Served.", &served)
	RegisterRuntimeMetrics(reg)

	a := NewAdminServer(reg)
	ready := false
	a.Readyz = func() error {
		if !ready {
			return errors.New("still warming up")
		}
		return nil
	}
	base := startAdmin(t, a)

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, base+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "warming up") {
		t.Errorf("/readyz (unready) = %d %q, want 503", code, body)
	}
	ready = true
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz (ready) = %d, want 200", code)
	}

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"admin_test_served_total 123",
		"# TYPE go_goroutines gauge",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// pprof must be mounted: cmdline is the cheapest endpoint that proves
	// the whole suite is wired (profile/trace sample for seconds).
	if code, body := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/pprof/cmdline = %d (%d bytes), want 200 non-empty", code, len(body))
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index = %d, want 200 with profile listing", code)
	}
}

// TestAdminPprofSuite checks every always-on pprof endpoint answers 200 with
// a body — the profiling plane must survive refactors of the admin mux.
func TestAdminPprofSuite(t *testing.T) {
	a := NewAdminServer(NewRegistry())
	base := startAdmin(t, a)
	for _, ep := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/heap?debug=1",
		"/debug/pprof/allocs?debug=1",
		"/debug/pprof/threadcreate?debug=1",
		"/debug/pprof/block?debug=1",
		"/debug/pprof/mutex?debug=1",
	} {
		if code, body := get(t, base+ep); code != http.StatusOK || len(body) == 0 {
			t.Errorf("%s = %d (%d bytes), want 200 non-empty", ep, code, len(body))
		}
	}
}

// TestAdminTraceEndpoints checks /debug/traces and /debug/slowlog render the
// sink's rings as JSON, and answer an empty document when no sink is set.
func TestAdminTraceEndpoints(t *testing.T) {
	reg := NewRegistry()
	a := NewAdminServer(reg)
	base := startAdmin(t, a)

	// No sink installed: both endpoints answer valid empty documents.
	for _, ep := range []string{"/debug/traces", "/debug/slowlog"} {
		code, body := get(t, base+ep)
		if code != http.StatusOK {
			t.Fatalf("%s (no sink) = %d", ep, code)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s (no sink) bad JSON: %v", ep, err)
		}
	}

	sink := &TraceSink{Ring: NewTraceRing(8), Slow: NewTraceRing(8)}
	a.SetTraceSink(sink)
	var tally SpanTally
	tally.ID = 42
	tally.Add(StageProbe, HopSelf, 100)
	var tr Trace
	tr.Fill(&tally, 1, 8, 100)
	sink.Deposit(&tr)
	tr.ID = 43
	sink.DepositSlow(&tr)

	var doc struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	code, body := get(t, base+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/traces bad JSON: %v\n%s", err, body)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].TraceID != TraceID(42) {
		t.Errorf("/debug/traces = %+v, want trace 42", doc.Traces)
	}
	code, body = get(t, base+"/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/slowlog bad JSON: %v\n%s", err, body)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].TraceID != TraceID(43) {
		t.Errorf("/debug/slowlog = %+v, want trace 43", doc.Traces)
	}
}

// TestAdminConcurrentRender hammers /metrics and /debug/traces from several
// goroutines while the instrumented values keep changing — the registry's
// gather path and the trace ring's slot locking must hold up under -race.
func TestAdminConcurrentRender(t *testing.T) {
	reg := NewRegistry()
	var served Counter
	var lat Histogram
	reg.Counter("admin_cc_served_total", "Served.", &served)
	reg.Histogram("admin_cc_latency_ns", "Latency.", &lat)
	sink := &TraceSink{Ring: NewTraceRing(16)}
	a := NewAdminServer(reg)
	a.SetTraceSink(sink)
	base := startAdmin(t, a)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		var tally SpanTally
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			served.Inc()
			lat.ObserveExemplar(int64(i%1000+1), uint64(i+1))
			tally.Reset()
			tally.ID = uint64(i + 1)
			tally.Add(StageProbe, HopSelf, int64(i))
			var tr Trace
			tr.Fill(&tally, 1, 1, int64(i))
			sink.Deposit(&tr)
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				ep := "/metrics"
				if (w+i)%2 == 0 {
					ep = "/debug/traces"
				}
				if code, _ := get(t, base+ep); code != http.StatusOK {
					t.Errorf("%s = %d under concurrency", ep, code)
					return
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestAdminReadyzDrainOrdering pins the drain contract daemons rely on: the
// readiness probe flips to 503 the instant the probe function says so, while
// /healthz and /metrics keep answering 200 so the final scrape still lands —
// and only then is the admin listener shut down.
func TestAdminReadyzDrainOrdering(t *testing.T) {
	reg := NewRegistry()
	var served Counter
	served.Add(7)
	reg.Counter("admin_drain_served_total", "Served.", &served)
	var ready atomic.Bool
	a := NewAdminServer(reg)
	a.Readyz = func() error {
		if !ready.Load() {
			return errors.New("draining")
		}
		return nil
	}
	base := startAdmin(t, a)

	ready.Store(true)
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz while serving = %d, want 200", code)
	}
	// Drain starts: readiness flips first...
	ready.Store(false)
	if code, body := get(t, base+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "draining") {
		t.Errorf("/readyz during drain = %d %q, want 503 draining", code, body)
	}
	// ...while liveness and the final scrape still answer.
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}
	if code, body := get(t, base+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "admin_drain_served_total 7") {
		t.Errorf("final scrape during drain = %d, missing counters:\n%s", code, body)
	}
	// Shutdown happens in the startAdmin cleanup, strictly after the above.
}

func TestAdminContentType(t *testing.T) {
	a := NewAdminServer(NewRegistry())
	base := startAdmin(t, a)
	resp, err := adminClient.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

func TestServeBeforeListen(t *testing.T) {
	a := NewAdminServer(NewRegistry())
	if err := a.Serve(); err == nil {
		t.Fatal("Serve before Listen succeeded")
	}
}

func TestListenBadAddr(t *testing.T) {
	a := NewAdminServer(NewRegistry())
	if _, err := a.Listen("256.256.256.256:0"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func ExampleRegistry() {
	reg := NewRegistry()
	var queries Counter
	reg.Counter("example_queries_total", "Queries answered.", &queries)
	queries.Add(2)
	fmt.Print(reg.Expose())
	// Output:
	// # HELP example_queries_total Queries answered.
	// # TYPE example_queries_total counter
	// example_queries_total 2
}
