// Command plserve is the serving daemon. It takes exactly one of two flags.
//
// -labels FILE serves a label store produced by pllabel -o: a zero-copy
// core.QueryEngine over the memory-mapped blob answers batched adjacency
// queries over TCP with the internal/adjserve protocol. Startup parses the
// header (O(n)) and moves no label byte; the bodies stay in the page cache,
// shared by every process mapping the file. Where mmap is unavailable the
// file is read into memory and the loaded line says mode=copied. A distance
// store (pllabel -scheme dist-pll or dist-bounded) gets a core.DistEngine and
// answers distance frames.
//
// -shards a,b,c routes over a fleet of such daemons, speaking the same
// protocol both ways: each request batch is split by owning shard, fanned out
// over a few pipelined upstream connections (lanes) per shard, and gathered
// back into request order. Startup handshakes every upstream and refuses to
// serve until the fleet is consistent (same n and ownership function,
// distinct shard indexes covering 0..count-1, identical fat sets). A fleet of
// identical whole-store servers (e.g. R copies on one distance store) is
// admitted as a replica fleet instead: requests spread by owner-of-u, and
// distance frames are routed too, which a partition refuses. A router holds
// no store, so -shed-depth is refused with -shards.
//
// Usage:
//
//	pllabel -scheme auto -in graph.el -o labels.pllb [-shards 3]
//	plserve -labels labels.pllb -addr 127.0.0.1:7421
//	plserve -labels labels.pllb.shard0 -addr 127.0.0.1:7431 &   # one per shard
//	plserve -shards 127.0.0.1:7431,127.0.0.1:7432,127.0.0.1:7433 -addr 127.0.0.1:7441
//	plquery -remote 127.0.0.1:7441        # interactive "u v" lines
//
// The admin plane (-admin-addr) comes up before the store load or the fleet
// handshake, so /readyz reads 503 through a slow start; it turns 200 once the
// query listener accepts (with -labels: while not shedding). SIGINT/SIGTERM
// drain gracefully: /readyz flips back to 503, in-flight frames are answered
// and flushed, then the process exits 0.
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
	"unicode"

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
		labelsPath  = fs.String("labels", "", "label store file to serve (exactly one of -labels and -shards)")
		shardsList  = fs.String("shards", "", "comma-separated addresses of plserve -labels daemons to route over: one per shard file, or replicas of one store (exactly one of -labels and -shards)")
		addr        = fs.String("addr", "127.0.0.1:7421", "listen address (port 0 picks a free port)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP address serving /metrics, /healthz, /readyz and /debug/pprof (empty disables; port 0 picks a free port)")
		maxConns    = fs.Int("max-conns", 0, "connection admission cap; extra conns get a shed frame and a close (0 = unlimited); behind a -shards router leave room for its lanes, 4 connections per router")
		shedDepth   = fs.Int("shed-depth", 0, "shed query/dist frames while more than this many frames are in flight across all conns (0 = never shed); -labels only")
		traceSample = fs.Int64("trace-sample", 0, "self-sample every Nth served or routed frame into /debug/traces (0 = only trace frames that arrive traced)")
		slowlogMs   = fs.Int64("slowlog-ms", 0, "capture frames slower than this many milliseconds in /debug/slowlog, sampled or not (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	routing := *shardsList != ""
	shards := strings.FieldsFunc(*shardsList, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if routing == (*labelsPath != "") || routing && len(shards) == 0 {
		return fmt.Errorf("exactly one of -labels FILE and -shards ADDR,... is required")
	}
	if routing && *shedDepth != 0 {
		return fmt.Errorf("-shed-depth is a -labels option; a -shards router holds no store")
	}
	logger := slog.New(slog.NewTextHandler(stdout, nil))

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

	// The admin plane is optional and read-only: one registry spanning the
	// runtime, the trace sink and the mode's families, plus pprof. It comes up
	// first, so /readyz answers through a slow start. Readiness flips on once
	// the query listener accepts and off while a server sheds or once draining
	// starts, so a load balancer stops routing to a daemon refusing work.
	var (
		ready atomic.Bool
		srv   *adjserve.Server // -labels only; written before ready turns true
		reg   *obs.Registry
	)
	if *adminAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		sink.Register(reg)
		admin := obs.NewAdminServer(reg)
		admin.SetTraceSink(sink)
		admin.Readyz = func() error {
			if !ready.Load() {
				return errors.New("not serving")
			}
			if srv != nil && srv.Shedding() {
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
		// Every return from here on shuts the admin plane down, after the drain:
		// a scrape during the drain still sees the final counters.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			admin.Shutdown(ctx)
			cancel()
		}()
	}

	// Either mode's daemon is a front: listener, admission cap, frame loop, drain.
	var d interface {
		Serve(net.Listener) error
		Close() error
		SetMaxConns(int)
		SetTraceSink(*obs.TraceSink)
	}
	var summary func()
	start := time.Now()
	if routing {
		r, err := adjserve.NewRouter(shards, 0)
		if err != nil {
			return fmt.Errorf("shard handshake: %w", err)
		}
		if reg != nil {
			obs.RegisterBuildInfo(reg, "role", "router")
			r.RegisterMetrics(reg)
		}
		fleet := "shards"
		if r.Replicas() {
			fleet = "replicas"
		}
		logger.Info("handshaked", "shards", r.Shards(), "fleet", fleet, "lanes", r.Lanes(), "n", r.N(),
			"elapsed", time.Since(start).Round(time.Microsecond).String())
		m := r.Metrics()
		d, summary = r, func() { logger.Info("routed", "queries", m.Queries.Load(), "frames", m.Frames.Load()) }
	} else {
		store, err := labelstore.Open(*labelsPath)
		if err != nil {
			return err
		}
		defer store.Close()
		// A store serves exactly one query plane, and the store decides which:
		// Engines builds its adjacency or distance engine (with the shard map
		// attached on a shard store) or refuses it here, at startup.
		// attachMetrics abstracts over the two engine types for the admin
		// registrations below, and registerEngine names the metrics by plane
		// (engine_* or dist_engine_*).
		eng, deng, err := store.Engines()
		if err != nil {
			return fmt.Errorf("store %s is not servable: %w", *labelsPath, err)
		}
		var (
			attachMetrics  func(*core.EngineMetrics)
			registerEngine = (*core.EngineMetrics).Register
			planeAttrs     []any
		)
		if deng != nil {
			srv = adjserve.NewServer(nil, 0)
			srv.SetDistEngine(deng)
			attachMetrics = deng.AttachMetrics
			registerEngine = (*core.EngineMetrics).RegisterDist
			planeAttrs = []any{"plane", "distance/" + store.SchemeKind()}
			if deng.Kind() == core.DistPLL {
				// The decoded hub table is heap beside the mapped store, and
				// not shared between processes serving the same file.
				planeAttrs = append(planeAttrs, "hub_table_bytes", deng.HubTableBytes())
			}
		} else {
			if m, ok := eng.Shard(); ok {
				planeAttrs = []any{"shard", fmt.Sprintf("%d/%d", m.Index, m.Count), "fn", fmt.Sprint(m.Fn)}
			}
			srv = adjserve.NewServer(eng, 0)
			attachMetrics = eng.AttachMetrics
		}
		srv.SetShedDepth(*shedDepth)
		mode, layout := "copied", "id"
		if store.Mapped() {
			mode = "mmap"
		}
		if _, _, order, _ := store.ArenaLayout(); order != nil {
			layout = "degree"
		}
		loadedAttrs := append([]any{"scheme", store.Scheme, "n", store.N(), "layout", layout}, planeAttrs...)
		logger.Info("loaded", append(loadedAttrs, "mode", mode, "elapsed", time.Since(start).Round(time.Microsecond).String())...)
		if reg != nil {
			obs.RegisterBuildInfo(reg, "scheme", string(store.Scheme), "layout", layout)
			srv.Metrics().Register(reg)
			engMetrics := new(core.EngineMetrics)
			registerEngine(engMetrics, reg)
			attachMetrics(engMetrics)
			labelstore.RegisterMetrics(reg)
		}
		m := srv.Metrics()
		d, summary = srv, func() {
			logger.Info("served", "queries", m.Queries.Load(), "frames", m.Frames.Load(),
				"bytes", m.BytesIn.Load()+m.BytesOut.Load())
		}
	}
	defer d.Close()
	d.SetMaxConns(*maxConns)
	d.SetTraceSink(sink)

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
		d.Close()
	}()

	err = d.Serve(ln)
	close(quit)
	<-done
	summary()
	if err == adjserve.ErrClosed {
		return nil
	}
	return err
}
