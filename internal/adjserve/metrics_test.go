package adjserve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestBatchClass(t *testing.T) {
	cases := []struct {
		pairs int
		want  string
	}{
		{1, "1"}, {2, "2-64"}, {64, "2-64"}, {65, "65-1024"},
		{1024, "65-1024"}, {1025, "1025-4096"}, {4096, "1025-4096"},
		{4097, ">4096"}, {1 << 20, ">4096"},
	}
	for _, c := range cases {
		if got := batchClassLabels[batchClass(c.pairs)]; got != c.want {
			t.Errorf("batchClass(%d) = %q, want %q", c.pairs, got, c.want)
		}
	}
}

// scrapeSeries fetches url and returns the value of the exactly-named series
// (name including any label set, e.g. `adjserve_queries_total` or
// `labelstore_open_total{mode="mmap"}`).
func scrapeSeries(t *testing.T, url, series string) float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return findSeries(t, string(body), series)
}

// findSeries returns the value of the exactly-named series in a text
// exposition.
func findSeries(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in scrape:\n%s", series, exposition)
	return 0
}

// TestServerMetricsE2E is the admin-endpoint acceptance check: a loopback
// server handles a concurrent batch storm while its metrics (and the engine's)
// are exposed through a real obs.AdminServer, and the scraped counters must
// equal the client-side ground truth exactly — every pair sent is one query
// counted, once.
func TestServerMetricsE2E(t *testing.T) {
	eng := testEngine(t, 300, 11)
	var em core.EngineMetrics
	eng.AttachMetrics(&em)
	addr, srv, _ := startServer(t, eng, 0)

	reg := obs.NewRegistry()
	srv.Metrics().Register(reg)
	em.Register(reg)
	admin := obs.NewAdminServer(reg)
	adminAddr, err := admin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go admin.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		admin.Shutdown(ctx)
	}()
	metricsURL := fmt.Sprintf("http://%s/metrics", adminAddr)

	const (
		workers = 8
		batches = 20
		pairsN  = 64
	)
	var wg sync.WaitGroup
	scraped := make(chan struct{})
	go func() {
		// Scrape mid-storm: rendering must be safe against concurrent
		// observation, and the snapshot must be a plausible partial count.
		<-scraped
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(addr)
			defer c.Close()
			for b := 0; b < batches; b++ {
				pairs := randomPairs(eng.N(), pairsN, int64(100*w+b))
				if _, err := c.AdjacentMany(pairs, nil); err != nil {
					t.Errorf("worker %d batch %d: %v", w, b, err)
					return
				}
				if w == 0 && b == batches/2 {
					mid := scrapeSeries(t, metricsURL, "adjserve_queries_total")
					if mid <= 0 || mid > workers*batches*pairsN {
						t.Errorf("mid-storm adjserve_queries_total = %v, want in (0, %d]", mid, workers*batches*pairsN)
					}
					close(scraped)
				}
			}
		}(w)
	}
	wg.Wait()

	const wantQueries = workers * batches * pairsN
	if got := scrapeSeries(t, metricsURL, "adjserve_queries_total"); got != wantQueries {
		t.Errorf("adjserve_queries_total = %v, want %d", got, wantQueries)
	}
	if got := scrapeSeries(t, metricsURL, "engine_queries_total"); got != wantQueries {
		t.Errorf("engine_queries_total = %v, want %d", got, wantQueries)
	}
	if got := scrapeSeries(t, metricsURL, "engine_batches_total"); got != workers*batches {
		t.Errorf("engine_batches_total = %v, want %d", got, workers*batches)
	}
	if got := scrapeSeries(t, metricsURL, "adjserve_frames_total"); got != workers*batches {
		t.Errorf("adjserve_frames_total = %v, want %d", got, workers*batches)
	}
	// The branch split partitions the queries.
	thin := scrapeSeries(t, metricsURL, "engine_branch_thin_total")
	fat := scrapeSeries(t, metricsURL, "engine_branch_fat_total")
	self := scrapeSeries(t, metricsURL, "engine_branch_self_total")
	if thin+fat+self != wantQueries {
		t.Errorf("branch split %v+%v+%v != %d", thin, fat, self, wantQueries)
	}
	// Short thin lists live in the header record; the rest are slab reads.
	if inline := scrapeSeries(t, metricsURL, "engine_branch_thin_inline_total"); inline <= 0 || inline > thin {
		t.Errorf("engine_branch_thin_inline_total = %v of %v thin probes, want in (0, thin]", inline, thin)
	}
	if got := scrapeSeries(t, metricsURL, "adjserve_error_frames_total"); got != 0 {
		t.Errorf("adjserve_error_frames_total = %v before any error", got)
	}
	if got := scrapeSeries(t, metricsURL, "adjserve_connections_total"); got != workers {
		t.Errorf("adjserve_connections_total = %v, want %d", got, workers)
	}
	if in := scrapeSeries(t, metricsURL, "adjserve_bytes_in_total"); in <= 0 {
		t.Errorf("adjserve_bytes_in_total = %v, want > 0", in)
	}
	if out := scrapeSeries(t, metricsURL, "adjserve_bytes_out_total"); out <= 0 {
		t.Errorf("adjserve_bytes_out_total = %v, want > 0", out)
	}
	// Frame latency lands in the histogram for the exact batch class driven.
	if got := scrapeSeries(t, metricsURL, `adjserve_frame_latency_ns_count{batch="2-64"}`); got != workers*batches {
		t.Errorf(`frame_latency count{batch="2-64"} = %v, want %d`, got, workers*batches)
	}

	// An out-of-range vertex produces an error frame, visible in the scrape,
	// and charges no query.
	c := NewClient(addr)
	defer c.Close()
	if _, err := c.Adjacent(eng.N()+5, 0); err == nil {
		t.Fatal("out-of-range query succeeded")
	}
	if got := scrapeSeries(t, metricsURL, "adjserve_error_frames_total"); got != 1 {
		t.Errorf("adjserve_error_frames_total = %v after one error frame, want 1", got)
	}
	if got := scrapeSeries(t, metricsURL, "adjserve_queries_total"); got != wantQueries {
		t.Errorf("adjserve_queries_total = %v after error frame, want unchanged %d", got, wantQueries)
	}

	// All calls answered: nothing is in flight.
	if got := srv.Metrics().ConnsActive.Load(); got < 1 {
		t.Errorf("ConnsActive = %d with open clients, want >= 1", got)
	}
	cl := NewClient(addr)
	cl.Close()
}

// TestEarlyExitFlushesTally: however a pair frame ends, the engine's metrics
// hold exactly the pairs it probed, on both planes — those ahead of an engine
// error, and none for a malformed frame (truncated, trailing bytes, a bad
// width), which is refused whole before any probe. A frame that ended early is
// never charged as a batch.
func TestEarlyExitFlushesTally(t *testing.T) {
	var adjM, distM core.EngineMetrics
	adj := testEngine(t, 400, 3)
	adj.AttachMetrics(&adjM)
	dist := testDistEngines(t, 400, 3)["pll"]
	dist.AttachMetrics(&distM)
	srv := NewServer(adj, 0)
	srv.SetDistEngine(dist)
	good := randomPairs(400, 40, 9)
	for _, tc := range []struct {
		op byte
		m  *core.EngineMetrics
	}{{opQuery, &adjM}, {opDist, &distM}} {
		whole := appendPairsReq(nil, tc.op, good)
		badWidth := slices.Clone(whole)
		badWidth[2] = 65 // op, count 40, width
		for _, k := range []int{0, 5, 31, 32, 37} {
			outOfRange := append(append([][2]int(nil), good[:k]...), [2]int{5, 70000})
			for what, fr := range map[string]struct {
				req    []byte
				probed int
			}{
				"range error": {appendPairsReq(nil, tc.op, append(outOfRange, good[k+1:]...)), k},
				"truncated":   {whole[:len(whole)-1-k], 0},
				"trailing":    {append(slices.Clone(whole), make([]byte, k+1)...), 0},
				"bad width":   {badWidth, 0},
			} {
				before, batches := tc.m.Queries.Load(), tc.m.Batches.Load()
				if resp := goldenFrame(srv, fr.req); resp[0] != statusErr {
					t.Fatalf("op %d %s at %d: frame %q, want an error frame", tc.op, what, k, resp)
				}
				if got := tc.m.Queries.Load() - before; got != int64(fr.probed) {
					t.Errorf("op %d %s at %d: engine queries grew by %d, want %d", tc.op, what, k, got, fr.probed)
				}
				if got := tc.m.Batches.Load() - batches; got != 0 {
					t.Errorf("op %d %s at %d: a frame that ended early was charged as %d batches", tc.op, what, k, got)
				}
			}
		}
		before, batches := tc.m.Queries.Load(), tc.m.Batches.Load()
		if resp := goldenFrame(srv, whole); resp[0] != statusOK {
			t.Fatalf("op %d whole frame: %q, want an OK frame", tc.op, resp)
		}
		if q, b := tc.m.Queries.Load()-before, tc.m.Batches.Load()-batches; q != 40 || b != 1 {
			t.Errorf("op %d whole frame: engine queries grew by %d and batches by %d, want 40 and 1", tc.op, q, b)
		}
	}
}

// TestClientDialBounded: a client pointed at a dead address gives up after
// maxDialAttempts with the last dial error, and the attempt/failure counters
// record exactly the configured cap.
func TestClientDialBounded(t *testing.T) {
	// A listener opened and closed immediately yields an address that
	// reliably refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr)
	c.maxDialAttempts = 3
	c.redialBackoff = time.Millisecond
	_, err = c.AdjacentMany([][2]int{{0, 1}}, nil)
	if err == nil {
		t.Fatal("call to dead server succeeded")
	}
	if !strings.Contains(err.Error(), "3 consecutive failures") {
		t.Errorf("error %q does not mention the attempt cap", err)
	}
	m := c.Metrics()
	if got := m.DialAttempts.Load(); got != 3 {
		t.Errorf("DialAttempts = %d, want 3", got)
	}
	if got := m.DialFailures.Load(); got != 3 {
		t.Errorf("DialFailures = %d, want 3", got)
	}
	if got := m.Redials.Load(); got != 0 {
		t.Errorf("Redials = %d for a never-connected client, want 0", got)
	}

	// Dial surfaces the same bounded policy eagerly.
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial of dead server succeeded")
	}
}

// TestClientRedialCounted: a reconnect after a lost connection counts as a
// redial; the first connection does not.
func TestClientRedialCounted(t *testing.T) {
	eng := testEngine(t, 50, 2)
	addr, _, _ := startServer(t, eng, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Metrics().Redials.Load(); got != 0 {
		t.Errorf("Redials = %d after first dial, want 0", got)
	}
	if _, err := c.AdjacentMany([][2]int{{0, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close() // drop the connection; the next call must redial
	if _, err := c.AdjacentMany([][2]int{{1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Redials.Load(); got != 1 {
		t.Errorf("Redials = %d after reconnect, want 1", got)
	}
	if got := c.Metrics().InFlight.Load(); got != 0 {
		t.Errorf("InFlight = %d at rest, want 0", got)
	}
}

// TestFlushMetricsExposed pins the series that make the coalescing at each
// hop readable from /metrics — flushes beside frames on the server, the
// router's downstream side and every upstream client (one series per shard
// and lane), plus the router's begun-frames, lanes and pending gauges — and
// checks they count: one caller, one frame in flight, so every hop flushes
// exactly once per frame it wrote, summed over a shard's lanes.
func TestFlushMetricsExposed(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, srvs := startShardFleet(t, engines)
	addr, r := startRouter(t, addrs, 0)
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	srvs[0].Metrics().Register(reg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Metrics().Register(reg)
	const batches = 5
	pairs := randomPairs(full.N(), 256, 3)
	for i := 0; i < batches; i++ {
		if _, err := c.AdjacentMany(pairs, nil); err != nil {
			t.Fatal(err)
		}
	}
	series := func(name string) float64 { return findSeries(t, reg.Expose(), name) }
	// shard 0's upstream clients: one series per lane, summed.
	upstream := func(family string) (sum float64) {
		for l := 0; l < r.Lanes(); l++ {
			sum += series(fmt.Sprintf(`%s{shard="0",lane="%d"}`, family, l))
		}
		return sum
	}
	for _, hop := range []struct {
		read            func(string) float64
		flushes, frames string
	}{
		{series, "adjserve_client_flushes_total", "adjserve_client_frames_total"},
		{series, "adjserve_router_flushes_total", "adjserve_router_frames_total"},
		{upstream, "adjserve_client_flushes_total", "adjserve_client_frames_total"},
		{series, "adjserve_flushes_total", "adjserve_frames_total"},
	} {
		flushes, frames := hop.read(hop.flushes), hop.read(hop.frames)
		if flushes < batches || flushes != frames {
			t.Errorf("%s = %v beside %s = %v, want one flush per frame over %d unpipelined batches",
				hop.flushes, flushes, hop.frames, frames, batches)
		}
	}
	if got := series("adjserve_router_begun_frames"); got != 0 {
		t.Errorf("adjserve_router_begun_frames = %v at rest, want 0", got)
	}
	if got := series("adjserve_router_upstream_lanes"); got != float64(r.Lanes()) {
		t.Errorf("adjserve_router_upstream_lanes = %v, want %d", got, r.Lanes())
	}
	if got := series(`adjserve_router_upstream_pending_frames{shard="0"}`); got != 0 {
		t.Errorf("adjserve_router_upstream_pending_frames = %v at rest, want 0", got)
	}
}
