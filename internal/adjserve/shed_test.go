package adjserve

import (
	"net"
	"testing"
	"time"
)

// TestShedHysteresis drives the latch through its trip/hold/release cycle by
// steering the queued-frame gauge directly. shouldShed sees the gauge with
// the asking frame included (handle() increments before process()), so every
// steered value below is "other queued frames + the asking one": trip above
// depth, hold in the (depth/2, depth] band, release at depth/2.
func TestShedHysteresis(t *testing.T) {
	srv := NewServer(testEngine(t, 200, 3), 0)
	srv.SetShedDepth(10)
	q := &srv.metrics.QueuedFrames

	q.Add(1) // just the asking frame, nothing else queued
	if srv.shouldShed() {
		t.Fatal("shed with an empty queue")
	}
	q.Add(10) // 10 others: exactly depth, not yet over
	if srv.shouldShed() {
		t.Fatal("shed at depth, want trip only above it")
	}
	q.Add(1) // 11 others > 10: trips
	if !srv.shouldShed() {
		t.Fatal("no shed above depth")
	}
	if got := srv.metrics.ShedEvents.Load(); got != 1 {
		t.Fatalf("ShedEvents = %d, want 1", got)
	}
	q.Add(-5) // 6 others > depth/2 = 5: latch holds
	if !srv.shouldShed() {
		t.Fatal("latch released above depth/2")
	}
	if got := srv.metrics.ShedEvents.Load(); got != 1 {
		t.Fatalf("ShedEvents = %d after hold, want still 1 (no re-trip)", got)
	}
	q.Add(-1) // 5 others <= depth/2: releases
	if srv.shouldShed() {
		t.Fatal("latch held at depth/2, want release")
	}
	if srv.shedding.Load() {
		t.Fatal("latch flag still set after release")
	}
}

// TestSheddingReadyzRelease verifies the readiness view of the latch: after a
// storm trips it, Shedding() itself releases once the queue has drained, so
// /readyz recovers even when no further frame re-evaluates shouldShed.
func TestSheddingReadyzRelease(t *testing.T) {
	srv := NewServer(testEngine(t, 200, 3), 0)
	srv.SetShedDepth(4)
	srv.metrics.QueuedFrames.Add(6) // asking frame + 5 others > depth
	if !srv.shouldShed() {
		t.Fatal("no trip above depth")
	}
	if !srv.Shedding() {
		t.Fatal("Shedding() false while the queue is past the bound")
	}
	srv.metrics.QueuedFrames.Add(-6) // storm stops dead; no frames arrive
	if srv.Shedding() {
		t.Fatal("Shedding() true after the queue drained to zero")
	}
	if srv.shedding.Load() {
		t.Fatal("latch not released by Shedding()")
	}
}

// TestShedFrameEndToEnd forces the latch over the wire path: with the queue
// gauge held past the bound, a client query draws ErrShed (one status byte,
// connection intact), and once the queue drains the same connection serves
// again.
func TestShedFrameEndToEnd(t *testing.T) {
	eng := testEngine(t, 500, 7)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, 0)
	srv.SetShedDepth(1)
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pin the gauge past the bound: every query/dist frame sheds, while the
	// info op still answers (handshakes survive overload).
	srv.Metrics().QueuedFrames.Add(5)
	if _, err := c.Adjacent(1, 2); err != ErrShed {
		t.Fatalf("query under overload: err = %v, want ErrShed", err)
	}
	if n, err := c.Info(); err != nil || n != eng.N() {
		t.Fatalf("info under overload: n=%d err=%v, want n=%d nil (info is never shed)", n, err, eng.N())
	}
	if got := srv.Metrics().ShedFrames.Load(); got != 1 {
		t.Fatalf("server ShedFrames = %d, want 1", got)
	}
	if got := c.Metrics().ShedFrames.Load(); got != 1 {
		t.Fatalf("client ShedFrames = %d, want 1", got)
	}

	// Drain: the extra decrement below brings the real queue depth back in
	// charge, the latch releases on the next frame, and the same connection
	// (never closed by a shed) serves normally.
	srv.Metrics().QueuedFrames.Add(-5)
	want, err := eng.Adjacent(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Adjacent(1, 2)
	if err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	if got != want {
		t.Fatalf("post-shed answer = %v, want %v", got, want)
	}
}

// TestAdmissionCap verifies the connection cap: the over-cap client's call
// fails with ErrShed (not a bare reset), the admitted client keeps serving,
// and closing the admitted connection frees the slot.
func TestAdmissionCap(t *testing.T) {
	eng := testEngine(t, 500, 11)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, 0)
	srv.SetMaxConns(1)
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	first, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.Adjacent(1, 2); err != nil {
		t.Fatal(err)
	}

	// The second connection is accepted at the TCP level but refused at
	// admission: its first call draws ErrShed. The client then redials on the
	// next call and is refused again while the slot is held.
	second := NewClient(addr)
	second.maxDialAttempts = 1
	defer second.Close()
	if _, err := second.Adjacent(3, 4); err != ErrShed {
		t.Fatalf("over-cap call: err = %v, want ErrShed", err)
	}
	if got := srv.Metrics().ConnsShed.Load(); got == 0 {
		t.Fatal("ConnsShed not counted")
	}
	if _, err := first.Adjacent(5, 6); err != nil {
		t.Fatalf("admitted connection disturbed by the refusal: %v", err)
	}

	// Free the slot; the refused client's transparent redial must now get in.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := second.Adjacent(3, 4); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after the admitted connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShedZeroAlloc asserts the shed path allocates nothing: answering a
// query frame with a shed frame is one status byte into a reused buffer.
func TestShedZeroAlloc(t *testing.T) {
	srv := NewServer(testEngine(t, 500, 13), 0)
	srv.SetShedDepth(1)
	srv.metrics.QueuedFrames.Add(5) // pinned past the bound: always shed
	req := appendPairsReq(nil, opQuery, randomPairs(500, 64, 1))
	bufs := &connBuffers{resp: make([]byte, 0, 64)}
	if resp, _ := srv.process(req, bufs); len(resp) != 1 || resp[0] != statusShed {
		t.Fatalf("forced shed answered %v, want one shed status byte", resp)
	}
	if avg := testing.AllocsPerRun(200, func() {
		resp, _ := srv.process(req, bufs)
		bufs.resp = resp[:0]
	}); avg != 0 {
		t.Fatalf("shed path allocates %.1f/op, want 0", avg)
	}
}

// TestServeZeroAllocSteadyState asserts the admitted serve path stays
// allocation-free once the connection scratch is warm — the property the CI
// bench gate watches, checked here directly against process().
func TestServeZeroAllocSteadyState(t *testing.T) {
	srv := NewServer(testEngine(t, 500, 17), 0)
	srv.SetShedDepth(8) // armed but idle: the depth check itself must not cost
	req := appendPairsReq(nil, opQuery, randomPairs(500, 64, 2))
	bufs := &connBuffers{}
	resp, queries := srv.process(req, bufs)
	if queries != 64 {
		t.Fatalf("warmup answered %d queries, want 64 (resp %v)", queries, resp)
	}
	bufs.resp = resp[:0]
	if avg := testing.AllocsPerRun(200, func() {
		resp, _ := srv.process(req, bufs)
		bufs.resp = resp[:0]
	}); avg != 0 {
		t.Fatalf("armed serve path allocates %.1f/op, want 0", avg)
	}
}

// TestResponseCoalescingBounded verifies correctness under the tightest
// coalescing bound: with at most one pending response per flush, a heavily
// pipelined batch still answers bit-for-bit like the engine.
func TestResponseCoalescingBounded(t *testing.T) {
	eng := testEngine(t, 800, 19)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, 0)
	srv.maxPendingResp = 1
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MaxBatch = 8 // 50 pipelined frames per call
	pairs := randomPairs(800, 400, 5)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestJitterBackoffBounds checks the jitter math at its extremes: the scale
// factor spans exactly [1-frac, 1+frac] as the uniform draw spans [0, 1).
func TestJitterBackoffBounds(t *testing.T) {
	const d = 100 * time.Millisecond
	for _, tc := range []struct {
		draw float64
		want time.Duration
	}{
		{0, 80 * time.Millisecond},
		{0.5, 100 * time.Millisecond},
		{1, 120 * time.Millisecond},
	} {
		c := NewClient("unused")
		c.jitterFloat = func() float64 { return tc.draw }
		if got := c.jitterBackoff(d); got != tc.want {
			t.Fatalf("jitterBackoff(%v) with draw %.1f = %v, want %v", d, tc.draw, got, tc.want)
		}
	}
}

// TestRedialBackoffJittered drives a full bounded-redial cycle against a dead
// address with an injected clock and jitter source: the recorded sleeps must
// be the exponential ladder scaled by the injected draws, and no real time
// may pass.
func TestRedialBackoffJittered(t *testing.T) {
	c := NewClient("127.0.0.1:1") // never dialed: DialFunc injects failures
	c.maxDialAttempts = 4
	c.redialBackoff = 100 * time.Millisecond
	dials := 0
	c.DialFunc = func(addr string) (net.Conn, error) {
		dials++
		return nil, &net.OpError{Op: "dial", Err: &timeoutErr{}}
	}
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	draws := []float64{0, 1, 0.5}
	c.jitterFloat = func() float64 { d := draws[0]; draws = draws[1:]; return d }

	if _, err := c.Adjacent(0, 1); err == nil {
		t.Fatal("call against a dead dialer succeeded")
	}
	if dials != 4 {
		t.Fatalf("dials = %d, want maxDialAttempts = 4", dials)
	}
	// Backoff ladder 100ms, 200ms, 400ms scaled by draws 0 → ×0.8,
	// 1 → ×1.2, 0.5 → ×1.0. Sleeps happen before attempts 2..4.
	want := []time.Duration{80 * time.Millisecond, 240 * time.Millisecond, 400 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %d sleeps", slept, len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (jittered ladder)", i, slept[i], want[i])
		}
	}
	if got := c.Metrics().DialFailures.Load(); got != 4 {
		t.Fatalf("DialFailures = %d, want 4", got)
	}
}

type timeoutErr struct{}

func (*timeoutErr) Error() string   { return "injected dial failure" }
func (*timeoutErr) Timeout() bool   { return true }
func (*timeoutErr) Temporary() bool { return true }

// TestRouterShedPropagation pins one shard of a fleet into shedding and
// checks the router's granularity contract: a downstream frame that needs the
// shedding shard is answered with a shed frame (ErrShed, retryable), while
// frames routed entirely to live shards keep serving; once the shard drains,
// the same router connection recovers.
func TestRouterShedPropagation(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, 21)
	addrs := make([]string, len(engines))
	srvs := make([]*Server, len(engines))
	for i, e := range engines {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(e, 0)
		srv.SetShedDepth(1) // armed everywhere; only shard 0's gauge is pinned
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i], srvs[i] = ln.Addr().String(), srv
	}
	routerAddr, r := startRouter(t, addrs, 0)

	// A self-pair routes to its vertex's owner, so find a thin vertex owned by
	// shard 2 — its self-pair can never be routed to shard 0.
	sc, err := Dial(addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	si, err := sc.ShardInfo()
	sc.Close()
	if err != nil {
		t.Fatal(err)
	}
	liveVertex := -1
	lo, hi := si.Map.Range(si.N)
	for _, v := range si.order[si.K:] { // the thin vertices, by identifier
		if lo <= int(v) && int(v) < hi {
			liveVertex = int(v)
			break
		}
	}
	if liveVertex < 0 {
		t.Fatal("no thin vertex owned by shard 2")
	}

	c, err := Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pin shard 0 past its bound: sub-batches sent to it shed.
	srvs[0].Metrics().QueuedFrames.Add(5)

	// A whole-keyspace batch needs shard 0, so the downstream frame sheds.
	all := make([][2]int, full.N())
	for v := range all {
		all[v] = [2]int{v, v}
	}
	if _, err := c.AdjacentMany(all, nil); err != ErrShed {
		t.Fatalf("frame needing the shedding shard: err = %v, want ErrShed", err)
	}
	if got := r.Metrics().ShedFrames.Load(); got == 0 {
		t.Fatal("router ShedFrames not counted")
	}

	// A frame confined to the live shard is untouched by shard 0's state.
	want, err := full.Adjacent(liveVertex, liveVertex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Adjacent(liveVertex, liveVertex)
	if err != nil {
		t.Fatalf("live-shard pair during a sibling's overload: %v", err)
	}
	if got != want {
		t.Fatalf("live-shard answer = %v, want %v", got, want)
	}

	// Drain shard 0: the same downstream connection serves the full keyspace
	// again — a shed never kills connections anywhere in the chain.
	srvs[0].Metrics().QueuedFrames.Add(-5)
	res, err := c.AdjacentMany(all, nil)
	if err != nil {
		t.Fatalf("after drain: %v", err)
	}
	for v := range all {
		w, err := full.Adjacent(v, v)
		if err != nil {
			t.Fatal(err)
		}
		if res[v] != w {
			t.Fatalf("post-drain pair (%d,%d) = %v, want %v", v, v, res[v], w)
		}
	}
}
