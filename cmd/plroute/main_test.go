package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// shardFleet boots count in-process shard servers over a sharded power-law
// labeling and returns their addresses plus the source graph.
func shardFleet(t *testing.T, count int) ([]string, *graph.Graph) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("labeling not arena-backed")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	arenas, err := core.ShardLabelArenas(slab, bitLens, order, count, core.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, count)
	for i, a := range arenas {
		eng, err := core.NewQueryEngineFromPermutedArena(a.Slab, a.BitLens, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetShard(core.ShardMap{Count: count, Index: i, Fn: core.ShardRange}); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := adjserve.NewServer(eng, 0)
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs, g
}

// logAttr extracts one key=value attribute from a slog text line.
func logAttr(line, key string) (string, bool) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// addrWriter scans the router's stdout for the msg=listening readiness line
// (and the msg=admin line, when the admin plane is enabled) and delivers the
// resolved addresses from their addr attributes.
type addrWriter struct {
	mu        sync.Mutex
	buf       strings.Builder
	addrC     chan string
	adminC    chan string
	sent      bool
	adminSent bool
}

func newAddrWriter() *addrWriter {
	return &addrWriter{addrC: make(chan string, 1), adminC: make(chan string, 1)}
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if !w.sent && strings.Contains(line, "msg=listening") {
			if addr, ok := logAttr(line, "addr"); ok {
				w.addrC <- addr
				w.sent = true
			}
		}
		if !w.adminSent && strings.Contains(line, "msg=admin") {
			if addr, ok := logAttr(line, "addr"); ok {
				w.adminC <- addr
				w.adminSent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestRouteAndDrain boots a 3-shard fleet plus the router daemon, checks
// routed answers against the graph over the full wire path, scrapes the
// per-shard metrics, and verifies the shutdown path drains cleanly.
func TestRouteAndDrain(t *testing.T) {
	addrs, g := shardFleet(t, 3)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{
			"-shards", strings.Join(addrs, ","),
			"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		}, out, stop)
	}()
	var addr, admin string
	for addr == "" || admin == "" {
		select {
		case addr = <-out.addrC:
		case admin = <-out.adminC:
		case err := <-errC:
			t.Fatalf("router exited early: %v\n%s", err, out.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("no readiness lines\n%s", out.String())
		}
	}

	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Info(); err != nil || n != g.N() {
		t.Fatalf("Info = %d, %v; want %d", n, err, g.N())
	}
	// Pairs spanning all three ownership ranges, answered in one batch.
	var pairs [][2]int
	for u := 0; u < g.N(); u += 7 {
		for v := u; v < g.N(); v += 83 {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if want := p[0] != p[1] && g.HasEdge(p[0], p[1]); got[i] != want {
			t.Fatalf("(%d,%d) = %v, want %v", p[0], p[1], got[i], want)
		}
	}
	c.Close()

	resp, err := http.Get("http://" + admin + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d while serving", resp.StatusCode)
	}
	resp, err = http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	wantSeries := []string{
		fmt.Sprintf("adjserve_router_queries_total %d", len(pairs)),
		"adjserve_router_frames_total 2", // the Info frame plus the query frame
	}
	for _, s := range wantSeries {
		if !strings.Contains(metrics, s+"\n") {
			t.Errorf("scrape missing %q", s)
		}
	}
	// Every shard served a slice of the fan-out: per-upstream batch counters
	// and the per-shard client families must be present and nonzero.
	for i := range addrs {
		series := fmt.Sprintf(`adjserve_router_upstream_batches_total{shard="%d"}`, i)
		if !strings.Contains(metrics, series+" 1\n") {
			t.Errorf("scrape missing %s 1", series)
		}
		family := fmt.Sprintf(`adjserve_client_frames_total{shard="%d",lane="0"}`, i)
		if !strings.Contains(metrics, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}

	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("router exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("router did not drain\n%s", out.String())
	}
	if !strings.Contains(out.String(), "routed") {
		t.Errorf("missing route summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "msg=handshaked shards=3 fleet=shards lanes=4") {
		t.Errorf("missing handshake line:\n%s", out.String())
	}
	// Admin shut down after the drain: the port no longer answers.
	if _, err := http.Get("http://" + admin + "/healthz"); err == nil {
		t.Error("admin endpoint still answering after shutdown")
	}
}

func TestMissingShardsFlag(t *testing.T) {
	if err := run(nil, newAddrWriter(), nil); err == nil {
		t.Fatal("no -shards accepted")
	}
}

// TestHandshakeFailure points the router at a dead address: run must fail
// fast instead of listening, and the admin plane (started before the
// handshake) must be torn down on the way out.
func TestHandshakeFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	out := newAddrWriter()
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-shards", dead, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, out, nil)
	}()
	select {
	case err := <-errC:
		if err == nil {
			t.Fatalf("dead shard accepted\n%s", out.String())
		}
		if !strings.Contains(err.Error(), "shard handshake") {
			t.Errorf("error %v does not name the handshake", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not return on a dead shard\n%s", out.String())
	}
	select {
	case admin := <-out.adminC:
		if _, err := http.Get("http://" + admin + "/healthz"); err == nil {
			t.Error("admin endpoint still answering after a failed handshake")
		}
	default:
	}
}
