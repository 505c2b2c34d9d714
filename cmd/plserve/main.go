// Command plserve is the adjacency-serving daemon: it memory-maps a label
// store produced by pllabel -o, builds a zero-copy core.QueryEngine over the
// mapped blob, and answers batched adjacency queries over TCP with the
// internal/adjserve protocol. Startup parses the store's header (O(n): bit
// lengths, permutation, one validating walk) and moves no label byte — the
// bodies stay in the page cache and are shared by every plserve process (and
// every plquery) mapping the same file. Where mmap is unavailable
// labelstore.Open reads the file into memory instead, and the loaded line says
// mode=copied.
//
// Usage:
//
//	pllabel -scheme auto -in graph.el -o labels.pllb
//	plserve -labels labels.pllb -addr 127.0.0.1:7421
//	plquery -remote 127.0.0.1:7421        # interactive "u v" lines
//
// A distance store (pllabel -scheme dist-pll or dist-bounded) is served the
// same way: the daemon reads the store's scheme record kind, builds a
// core.DistEngine over the mapped slab instead, and answers distance frames
// (plquery -dist -remote ...). The tuning flag -pair-cache-bits belongs to the
// distance plane; on an adjacency store it is refused.
//
// SIGINT/SIGTERM drain gracefully: in-flight frames are answered and
// flushed, then the process exits 0.
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
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/labelstore"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "plserve: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon. stop, when non-nil, is an extra shutdown trigger
// used by tests in place of a signal.
func run(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("plserve", flag.ContinueOnError)
	var (
		labelsPath  = fs.String("labels", "", "label store file (required)")
		addr        = fs.String("addr", "127.0.0.1:7421", "listen address (port 0 picks a free port)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP address serving /metrics, /healthz, /readyz and /debug/pprof (empty disables; port 0 picks a free port)")
		maxBatch    = fs.Int("max-batch", 0, "max pairs per request frame (0 = default)")
		cacheBits   = fs.Int("pair-cache-bits", 0, "log2 slots of the (u,v)→distance result cache (0 = disabled); distance stores only, refused on an adjacency store")
		maxConns    = fs.Int("max-conns", 0, "connection admission cap; extra conns get a shed frame and a close (0 = unlimited); behind plroute leave room for its lanes, 4 connections per router")
		shedDepth   = fs.Int("shed-depth", 0, "shed query/dist frames while more than this many frames are in flight across all conns (0 = never shed)")
		traceSample = fs.Int64("trace-sample", 0, "self-sample every Nth served frame into /debug/traces (0 = only trace frames that arrive traced)")
		slowlogMs   = fs.Int64("slowlog-ms", 0, "capture frames slower than this many milliseconds in /debug/slowlog, sampled or not (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *labelsPath == "" {
		return fmt.Errorf("-labels is required")
	}
	logger := slog.New(slog.NewTextHandler(stdout, nil))

	start := time.Now()
	store, err := labelstore.Open(*labelsPath)
	if err != nil {
		return err
	}
	defer store.Close()

	// A store serves exactly one query plane: adjacency (the default) or
	// distance (a scheme-stamped pll/bdist store → core.DistEngine behind the
	// same listener, answering opDist frames). attachMetrics abstracts over
	// the two engine types for the admin plane below.
	var (
		srv           *adjserve.Server
		attachMetrics func(*core.EngineMetrics)
		planeAttrs    []any
	)
	if da, ok := store.DistArena(); ok {
		deng, err := core.NewDistEngine(da)
		if err != nil {
			return fmt.Errorf("store %s is not servable: %w", *labelsPath, err)
		}
		// The result cache is attached before the engine is shared with any
		// connection goroutine (EnableResultCache's publication contract).
		if *cacheBits > 0 {
			if err := deng.EnableResultCache(*cacheBits); err != nil {
				return err
			}
		}
		srv = adjserve.NewServer(nil, *maxBatch)
		srv.SetDistEngine(deng)
		attachMetrics = deng.AttachMetrics
		planeAttrs = []any{"plane", "distance/" + store.SchemeKind()}
	} else {
		if *cacheBits > 0 {
			return fmt.Errorf("-pair-cache-bits caches distances, a distance-plane option; %s is an adjacency store", *labelsPath)
		}
		// Zero-copy over the store's arena, id- or degree-ordered. Only
		// fat/thin-layout stores (the engine's label format) are servable;
		// anything else fails here, at startup. The engine's header checks
		// cannot tell every other layout apart, so the scheme name decides.
		if !core.FatThinLayout(store.Scheme) {
			return fmt.Errorf("store %s is not servable: scheme %q is not a fat/thin layout", *labelsPath, store.Scheme)
		}
		slab, bitLens, order, _ := store.ArenaLayout()
		eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
		if err != nil {
			return fmt.Errorf("store %s is not servable: %w", *labelsPath, err)
		}
		// A shard store only holds its owned vertices' full labels (plus the
		// replicated fat set); attaching the shard map makes the engine answer
		// ErrNotResident for misrouted pairs instead of decoding a stub. plroute
		// reads the same map back over opShardInfo to route around it.
		if m, ok := store.Shard(); ok {
			if err := eng.SetShard(m); err != nil {
				return fmt.Errorf("store %s: %w", *labelsPath, err)
			}
			planeAttrs = []any{"shard", fmt.Sprintf("%d/%d", m.Index, m.Count), "fn", fmt.Sprint(m.Fn)}
		}
		srv = adjserve.NewServer(eng, *maxBatch)
		attachMetrics = eng.AttachMetrics
	}
	mode := "copied"
	if store.Mapped() {
		mode = "mmap"
	}
	layout := "id"
	if store.LayoutOrder() != nil {
		layout = "degree"
	}
	loadedAttrs := []any{"scheme", store.Scheme, "n", store.N(), "layout", layout}
	loadedAttrs = append(loadedAttrs, planeAttrs...)
	loadedAttrs = append(loadedAttrs, "mode", mode, "elapsed", time.Since(start).Round(time.Microsecond).String())
	logger.Info("loaded", loadedAttrs...)

	srv.SetMaxConns(*maxConns)
	srv.SetShedDepth(*shedDepth)

	// The trace sink is always installed: downstream-traced frames echo their
	// stage report regardless of flags, -trace-sample adds self-sampling, and
	// -slowlog-ms captures outliers even when unsampled. Slowlog hits also log
	// (rate-limited to ~1/s so a latency storm cannot melt the log).
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
	srv.SetTraceSink(sink)

	// The admin plane is optional and read-only: one registry spanning the
	// server, engine, store and runtime families, plus pprof. Readiness flips
	// before the query listener accepts and back off when draining starts, so
	// a load balancer stops routing while in-flight frames finish.
	var ready atomic.Bool
	var admin *obs.AdminServer
	if *adminAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		obs.RegisterBuildInfo(reg, "scheme", string(store.Scheme), "layout", layout)
		srv.Metrics().Register(reg)
		engMetrics := new(core.EngineMetrics)
		engMetrics.Register(reg)
		attachMetrics(engMetrics)
		labelstore.RegisterMetrics(reg)
		sink.Register(reg)
		admin = obs.NewAdminServer(reg)
		admin.SetTraceSink(sink)
		// Readiness folds in the shedding latch: a load balancer should stop
		// routing to a server that is refusing work, and resume once the
		// queue drains below the release threshold.
		admin.Readyz = func() error {
			if !ready.Load() {
				return errors.New("not serving")
			}
			if srv.Shedding() {
				return errors.New("shedding load")
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
		srv.Close()
	}()

	err = srv.Serve(ln)
	close(quit)
	<-done
	// Admin shutdown is ordered after the drain: a scrape during the drain
	// window still sees the final counters (and readyz already says 503).
	if admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		admin.Shutdown(ctx)
		cancel()
	}
	m := srv.Metrics()
	logger.Info("served", "queries", m.Queries.Load(), "frames", m.Frames.Load(),
		"bytes", m.BytesIn.Load()+m.BytesOut.Load())
	if err == adjserve.ErrClosed {
		return nil
	}
	return err
}
