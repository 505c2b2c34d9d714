// Command plroute is the scatter-gather router for a sharded label fleet:
// it speaks the adjserve wire protocol downstream (clients see one server
// covering all n vertices) and upstream (a few pipelined connections — lanes —
// per shard server; each downstream connection uses one). Each request batch
// is split by owning shard, fanned out concurrently, and the per-shard answers
// are scattered back into request order — so aggregate q/s grows near-linearly
// with the shard count while clients keep the single-server API.
//
// Usage:
//
//	pllabel -scheme auto -in graph.el -o labels.pllb -shards 3
//	plserve -labels labels.pllb.shard0 -addr 127.0.0.1:7431 &
//	plserve -labels labels.pllb.shard1 -addr 127.0.0.1:7432 &
//	plserve -labels labels.pllb.shard2 -addr 127.0.0.1:7433 &
//	plroute -shards 127.0.0.1:7431,127.0.0.1:7432,127.0.0.1:7433
//	plquery -remote 127.0.0.1:7441        # interactive "u v" lines
//
// Startup handshakes every shard with opShardInfo and refuses to serve until
// all shards answered with a consistent fleet (same n, same ownership
// function, distinct shard indexes covering 0..count-1, identical fat sets);
// /readyz stays false until then. SIGINT/SIGTERM drain gracefully.
//
// A fleet of identical whole-store servers (every upstream reports a trivial
// one-shard map — e.g. R copies of plserve on the same distance store) is
// admitted as a replica fleet instead: requests are spread by owner-of-u for
// load, and distance frames (plquery -dist) are routed too, which a shard
// partition refuses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/adjserve"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "plroute: %v\n", err)
		os.Exit(1)
	}
}

// run starts the router. stop, when non-nil, is an extra shutdown trigger
// used by tests in place of a signal.
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("plroute", flag.ContinueOnError)
	var (
		shardsStr   = fs.String("shards", "", "comma-separated shard server addresses, one plserve per shard file (required)")
		addr        = fs.String("addr", "127.0.0.1:7441", "listen address (port 0 picks a free port)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP address serving /metrics, /healthz, /readyz and /debug/pprof (empty disables; port 0 picks a free port)")
		maxBatch    = fs.Int("max-batch", 0, "max pairs per downstream request frame (0 = default)")
		maxConns    = fs.Int("max-conns", 0, "downstream connection admission cap; extra conns get a shed frame and a close (0 = unlimited); the shards' own -max-conns must leave room for this router's lanes")
		traceSample = fs.Int64("trace-sample", 0, "self-sample every Nth routed frame into /debug/traces (0 = only trace frames that arrive traced)")
		slowlogMs   = fs.Int64("slowlog-ms", 0, "capture frames slower than this many milliseconds in /debug/slowlog, sampled or not (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitAddrs(*shardsStr)
	if len(addrs) == 0 {
		return fmt.Errorf("-shards is required (comma-separated shard server addresses)")
	}
	logger := slog.New(slog.NewTextHandler(stdout, nil))

	// The admin plane comes up before the shard handshake so an orchestrator
	// can poll /readyz through a slow fleet start; it reports ready only once
	// every shard has answered opShardInfo and the fleet validated.
	var ready atomic.Bool
	var admin *obs.AdminServer
	var reg *obs.Registry
	if *adminAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		admin = obs.NewAdminServer(reg)
		admin.Readyz = func() error {
			if !ready.Load() {
				return errors.New("not serving")
			}
			return nil
		}
		resolved, err := admin.Listen(*adminAddr)
		if err != nil {
			return err
		}
		logger.Info("admin", "addr", resolved)
		go admin.Serve()
	}

	start := time.Now()
	r, err := adjserve.NewRouter(addrs, *maxBatch)
	if err != nil {
		if admin != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			admin.Shutdown(ctx)
			cancel()
		}
		return fmt.Errorf("shard handshake: %w", err)
	}
	defer r.Close()
	r.SetMaxConns(*maxConns)

	// The trace sink mirrors plserve's: downstream-traced frames always echo
	// the router-hop stage report, -trace-sample adds self-sampling, and
	// -slowlog-ms captures outliers (logged, rate-limited to ~1/s).
	sink := &obs.TraceSink{
		Ring:        obs.NewTraceRing(256),
		Slow:        obs.NewTraceRing(64),
		SampleEvery: *traceSample,
		SlowNs:      *slowlogMs * int64(time.Millisecond),
	}
	var lastSlowLog atomic.Int64
	sink.OnSlow = func(tr *obs.Trace) {
		now := time.Now().UnixNano()
		last := lastSlowLog.Load()
		if now-last < int64(time.Second) || !lastSlowLog.CompareAndSwap(last, now) {
			return
		}
		logger.Warn("slow_frame", "trace_id", obs.TraceID(tr.ID),
			"total_ns", tr.TotalNs, "pairs", tr.Pairs)
	}
	r.SetTraceSink(sink)
	if reg != nil {
		obs.RegisterBuildInfo(reg, "role", "router")
		r.RegisterMetrics(reg)
		sink.Register(reg)
		admin.SetTraceSink(sink)
	}
	fleet := "shards"
	if r.Replicas() {
		fleet = "replicas"
	}
	logger.Info("handshaked", "shards", r.Shards(), "fleet", fleet, "lanes", r.Lanes(), "n", r.N(),
		"elapsed", time.Since(start).Round(time.Microsecond).String())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The msg=listening line is the readiness contract scripts wait for
	// (scripts/serving_smoke.sh extracts the resolved port from its addr key).
	logger.Info("listening", "addr", ln.Addr().String())
	ready.Store(true)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	done := make(chan struct{})
	quit := make(chan struct{}) // released when Serve returns on its own
	go func() {
		defer close(done)
		select {
		case sig := <-sigs:
			logger.Info("draining", "signal", sig.String())
		case <-stop:
		case <-quit:
		}
		ready.Store(false)
		r.Close()
	}()

	err = r.Serve(ln)
	close(quit)
	<-done
	// Admin shutdown is ordered after the drain: a scrape during the drain
	// window still sees the final counters (and readyz already says 503).
	if admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		admin.Shutdown(ctx)
		cancel()
	}
	m := r.Metrics()
	logger.Info("routed", "queries", m.Queries.Load(), "frames", m.Frames.Load())
	if err == adjserve.ErrClosed {
		return nil
	}
	return err
}

// splitAddrs parses the -shards list, tolerating blanks from trailing commas.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
