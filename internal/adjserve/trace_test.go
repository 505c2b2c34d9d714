package adjserve

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// sumHops totals the tally's entries per hop, keyed by the raw hop byte.
func sumHops(t *obs.SpanTally) map[uint8]int64 {
	m := make(map[uint8]int64)
	for _, st := range t.Stages() {
		m[st.Hop] += st.Ns
	}
	return m
}

// stageSet collects which (stage, hop) combinations appeared.
func stageSet(t *obs.SpanTally) map[[2]uint8]bool {
	m := make(map[[2]uint8]bool)
	for _, st := range t.Stages() {
		m[[2]uint8{st.Stage, st.Hop}] = true
	}
	return m
}

// clientOverlap bounds how far a traced call's stage sum may exceed its wall
// time. The stages sum to the wall time by construction, except that the
// client clamps its residual net stage at 0: the peer starts its read stage
// as the first bytes arrive, which can be while the client is still encoding
// or flushing the rest, so the peer's stages may overlap the client's own by
// at most the client's encode + flush.
func clientOverlap(t *obs.SpanTally) int64 {
	var ns int64
	for _, st := range t.Stages() {
		if st.Hop == obs.HopSelf && (st.Stage == obs.StageEncode || st.Stage == obs.StageFlush) {
			ns += st.Ns
		}
	}
	return ns
}

// wireClock is a connection that notes when the traced call's first byte was
// handed to it and when its last byte came back. Both instants lie inside the
// window the client times its call over — it starts its clock before it
// encodes, and stops it after the answer was read — so their distance is a
// floor under the stage sum that holds however the scheduler treats the
// test's own clock reads around the call. (Bounding the sum from below by a
// share of the test's wall time does not: a goroutine descheduled between
// time.Now and the call, or between the call's return and time.Since, spends
// wall time no stage can account for.)
type wireClock struct {
	net.Conn
	mu         sync.Mutex
	armed      bool
	firstWrite time.Time
	lastRead   time.Time
}

func (w *wireClock) Write(p []byte) (int, error) {
	w.mu.Lock()
	if w.armed && w.firstWrite.IsZero() {
		w.firstWrite = time.Now()
	}
	w.mu.Unlock()
	return w.Conn.Write(p)
}

func (w *wireClock) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	if n > 0 {
		w.mu.Lock()
		w.lastRead = time.Now()
		w.mu.Unlock()
	}
	return n, err
}

// arm starts the clock: handshake traffic before it is not the traced call's.
func (w *wireClock) arm() {
	w.mu.Lock()
	w.armed = true
	w.mu.Unlock()
}

// onWire is how long the traced call demonstrably took.
func (w *wireClock) onWire() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastRead.Sub(w.firstWrite)
}

// dialWireClock connects a client to addr through a wireClock.
func dialWireClock(t *testing.T, addr string) (*Client, *wireClock) {
	t.Helper()
	w := new(wireClock)
	c := NewClient(addr)
	c.DialFunc = func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		w.Conn = nc
		return w, err
	}
	t.Cleanup(func() { c.Close() })
	return c, w
}

// checkStageSum is the attribution invariant of a traced call: the top-level
// stages sum to the window the client timed, which contains the call's time
// on the wire and is contained in the test's wall time — except that the sum
// may exceed the window by clientOverlap.
func checkStageSum(t *testing.T, sum int64, w *wireClock, wall time.Duration, tally *obs.SpanTally) {
	t.Helper()
	lo, hi := int64(w.onWire()), int64(wall)+clientOverlap(tally)
	if lo <= 0 {
		t.Fatalf("wire clock saw no round trip (%v)", time.Duration(lo))
	}
	if sum < lo || sum > hi {
		t.Errorf("stage sum %v outside [%v on the wire, %v] of e2e %v", time.Duration(sum),
			time.Duration(lo), time.Duration(hi), wall)
	}
}

// TestTraceDirectE2E traces one batched call against a plain server and
// checks the acceptance invariant: the client's own stages plus the server's
// echoed stage report sum to the observed end-to-end latency (the client
// constructs its net stage as exactly the unattributed remainder, so the
// invariant is structural; see checkStageSum for its two bounds).
func TestTraceDirectE2E(t *testing.T) {
	eng := testEngine(t, 400, 11)
	addr, srv, _ := startServer(t, eng, 0)
	sink := &obs.TraceSink{Ring: obs.NewTraceRing(16)}
	srv.SetTraceSink(sink)

	c, wire := dialWireClock(t, addr)
	if _, err := c.Info(); err != nil { // the dial, before the clock is armed
		t.Fatal(err)
	}
	wire.arm()

	pairs := randomPairs(eng.N(), 2000, 11)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tally obs.SpanTally
	start := time.Now()
	got, err := c.AdjacentManyTrace(pairs, nil, &tally)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}

	set := stageSet(&tally)
	for _, wantStage := range [][2]uint8{
		{obs.StageEncode, obs.HopSelf},
		{obs.StageFlush, obs.HopSelf},
		{obs.StageNet, obs.HopSelf},
		{obs.StageQueue, obs.HopPeer},
		{obs.StageRead, obs.HopPeer},
		{obs.StageProbe, obs.HopPeer},
	} {
		if !set[wantStage] {
			t.Errorf("missing stage %s@%s in %v",
				obs.StageName(wantStage[0]), obs.HopName(wantStage[1]), tally.Stages())
		}
	}

	var sum int64
	for _, st := range tally.Stages() {
		sum += st.Ns
	}
	checkStageSum(t, sum, wire, wall, &tally)

	// The traced frame was deposited at the server under the propagated id.
	snap := sink.Ring.Snapshot(nil)
	if len(snap) == 0 {
		t.Fatal("server sink captured no traces")
	}
	found := false
	for _, tr := range snap {
		if tr.ID == tally.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace id %s not in server ring", obs.TraceID(tally.ID))
	}
}

// TestTraceRoutedE2E is the acceptance check through the full scatter-gather
// path: client → router → 3 shard servers. The reconstructed timeline must
// contain the router's hop stages and per-shard sub-traces, and the top-level
// stages (client self + router hop) must sum to the observed e2e latency
// (checkStageSum) — shard-indexed entries nest inside the router's upstream
// window and are excluded from the invariant.
func TestTraceRoutedE2E(t *testing.T) {
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, srvs := startShardFleet(t, engines)
	for _, s := range srvs {
		s.SetTraceSink(&obs.TraceSink{Ring: obs.NewTraceRing(16)})
	}
	addr, r := startRouter(t, addrs, 0)
	sink := &obs.TraceSink{Ring: obs.NewTraceRing(16)}
	r.SetTraceSink(sink)

	c, wire := dialWireClock(t, addr)
	if _, err := c.Info(); err != nil { // the dial, before the clock is armed
		t.Fatal(err)
	}
	wire.arm()

	pairs := randomPairs(full.N(), 3000, 7)
	var tally obs.SpanTally
	start := time.Now()
	got, err := c.AdjacentManyTrace(pairs, nil, &tally)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := full.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair %d (%d,%d) = %v, engine says %v", i, p[0], p[1], got[i], want)
		}
	}

	set := stageSet(&tally)
	for _, wantStage := range [][2]uint8{
		{obs.StageScatter, obs.HopPeer},
		{obs.StageUpstream, obs.HopPeer},
		{obs.StageGather, obs.HopPeer},
	} {
		if !set[wantStage] {
			t.Errorf("missing router stage %s@%s in %v",
				obs.StageName(wantStage[0]), obs.HopName(wantStage[1]), tally.Stages())
		}
	}
	hops := sumHops(&tally)
	for shard := uint8(0); shard < 3; shard++ {
		if hops[shard] <= 0 {
			t.Errorf("no stages attributed to shard %d: %v", shard, tally.Stages())
		}
		if !set[[2]uint8{obs.StageProbe, shard}] {
			t.Errorf("shard %d missing probe stage", shard)
		}
		if !set[[2]uint8{obs.StageNet, shard}] {
			t.Errorf("shard %d missing net stage", shard)
		}
	}

	// Top-level invariant: self + router-hop stages cover the wall time.
	checkStageSum(t, hops[obs.HopSelf]+hops[obs.HopPeer], wire, wall, &tally)

	// Shard sub-traces nest inside the router's scatter and upstream stages:
	// a shard call's clock starts when scatter sends its sub-batch and stops
	// when the finisher has awaited it, which is before the upstream stage
	// ends — so each single shard's total fits within the two, exactly.
	var window int64
	for _, st := range tally.Stages() {
		if st.Hop == obs.HopPeer && (st.Stage == obs.StageScatter || st.Stage == obs.StageUpstream) {
			window += st.Ns
		}
	}
	for shard := uint8(0); shard < 3; shard++ {
		if hops[shard] > window {
			t.Errorf("shard %d stages (%v) exceed the router's scatter + upstream (%v)",
				shard, time.Duration(hops[shard]), time.Duration(window))
		}
	}

	// The router deposited the downstream-traced frame under the same id.
	snap := sink.Ring.Snapshot(nil)
	found := false
	for _, tr := range snap {
		if tr.ID == tally.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace id %s not in router ring (got %d traces)", obs.TraceID(tally.ID), len(snap))
	}
}

// TestTraceSlowlog pins threshold capture: with a 0-sample sink whose slow
// threshold is 1ns, plain untraced calls land in the slowlog ring with the
// server's coarse stages attached, and the OnSlow hook fires.
func TestTraceSlowlog(t *testing.T) {
	eng := testEngine(t, 400, 17)
	addr, srv, _ := startServer(t, eng, 0)
	sink := &obs.TraceSink{
		Ring:   obs.NewTraceRing(16),
		Slow:   obs.NewTraceRing(16),
		SlowNs: 1,
	}
	hit := make(chan struct{}, 16)
	sink.OnSlow = func(tr *obs.Trace) {
		select {
		case hit <- struct{}{}:
		default:
		}
	}
	srv.SetTraceSink(sink)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AdjacentMany(randomPairs(eng.N(), 64, 17), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hit:
	case <-time.After(5 * time.Second):
		t.Fatal("OnSlow hook never fired")
	}
	if sink.SlowHits.Load() == 0 {
		t.Error("slow-hit counter stayed 0")
	}
	snap := sink.Slow.Snapshot(nil)
	if len(snap) == 0 {
		t.Fatal("slowlog ring is empty")
	}
	if snap[0].ID == 0 {
		t.Error("slowlog trace has no id")
	}
	if snap[0].NStages == 0 {
		t.Error("slowlog trace has no stages")
	}
	// The unsampled slow frame must not have leaked into the sampled ring.
	if got := sink.Ring.Len(); got != 0 {
		t.Errorf("sampled ring has %d traces, want 0", got)
	}

	// And the admin endpoint renders it as JSON.
	reg := obs.NewRegistry()
	sink.Register(reg)
	var sb strings.Builder
	if err := obs.WriteTracesJSON(&sb, sink.Slow, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Stages  []struct {
				Stage string `json:"stage"`
				Hop   string `json:"hop"`
				Ns    int64  `json:"ns"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("slowlog JSON does not parse: %v\n%s", err, sb.String())
	}
	if len(doc.Traces) == 0 || len(doc.Traces[0].Stages) == 0 {
		t.Fatalf("slowlog JSON missing traces/stages:\n%s", sb.String())
	}
}

// TestTraceSelfSample pins server-side sampling: with SampleEvery=2 and plain
// untraced clients, every second frame lands in the sampled ring, and the
// responses stay byte-identical to the untraced protocol (no echo without the
// request flag).
func TestTraceSelfSample(t *testing.T) {
	eng := testEngine(t, 400, 19)
	addr, srv, _ := startServer(t, eng, 0)
	sink := &obs.TraceSink{Ring: obs.NewTraceRing(64), SampleEvery: 2}
	srv.SetTraceSink(sink)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pairs := randomPairs(eng.N(), 64, 19)
	want, err := eng.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 10
	for f := 0; f < frames; f++ {
		got, err := c.AdjacentMany(pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d pair %d: got %v, want %v", f, i, got[i], want[i])
			}
		}
	}
	// Client Dial does one Info frame too; sampling counts all frames, so the
	// exact count depends on op interleaving — bound it instead.
	n := sink.Ring.Len()
	if n < frames/2-1 || n > frames/2+2 {
		t.Errorf("sampled %d traces from %d frames at 1/2, want about %d", n, frames, frames/2)
	}
	if sink.Sampled.Load() == 0 {
		t.Error("sampled counter stayed 0")
	}
}

// TestServeFrameTraceDisabledZeroAlloc asserts the tentpole's perf guarantee:
// with a sink installed but sampling and slowlog off, the serve path
// allocates nothing per frame (the trace machinery must stay entirely off the
// untraced path).
func TestServeFrameTraceDisabledZeroAlloc(t *testing.T) {
	srv := NewServer(testEngine(t, 2000, 23), 0)
	srv.SetTraceSink(&obs.TraceSink{Ring: obs.NewTraceRing(16), Slow: obs.NewTraceRing(16)})
	req := appendPairsReq(nil, opQuery, randomPairs(2000, 64, 23))
	bufs := &connBuffers{resp: make([]byte, 0, 4096)}
	allocs := testing.AllocsPerRun(200, func() {
		start := time.Now()
		resp := srv.serveFrame(req, bufs, start, 1, 1)
		bufs.resp = resp[:0]
	})
	if allocs != 0 {
		t.Errorf("serveFrame with tracing disabled allocates %.1f/op, want 0", allocs)
	}
}
