package adjserve

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Server answers adjacency batches from a shared read-only QueryEngine. The
// engine is immutable, so any number of connection goroutines query it with
// no synchronization at all; the only shared mutable state is the connection
// registry and the metrics. Request and response buffers are sync.Pool-backed
// and reused across every frame of a connection, so the steady-state frame
// loop performs zero heap allocations.
type Server struct {
	engine   *core.QueryEngine
	dist     *core.DistEngine
	maxBatch int

	// shedDepth, when > 0, is the aggregate queued-frame bound: while more
	// than shedDepth frames are read-but-unflushed across all connections,
	// new query/dist frames are answered with shed frames (one buffered byte,
	// no engine work) until the depth drains below shedDepth/2. The hysteresis
	// keeps the server from flapping at the boundary; info and shard-info
	// frames are always answered so handshakes survive overload. Set before
	// Serve.
	shedDepth int

	// shedding is the hysteresis latch (see shedDepth); read once per frame.
	// The aggregate queued-frame depth itself lives in metrics.QueuedFrames:
	// frames whose payload has been read but whose response has not yet been
	// flushed, across every connection. Because responses coalesce per
	// read-burst, a connection sitting on a pipelined burst charges the whole
	// burst to the gauge — the queue the shedding bound watches.
	shedding atomic.Bool

	// metrics is the always-on Prometheus-facing instrumentation; see
	// ServerMetrics for what the frame loop charges and why it stays off
	// the per-query path.
	metrics ServerMetrics

	// shardInfo is the shard-info response (buildShardInfo), built by the
	// first handshake and shared by every later one.
	shardInfoOnce sync.Once
	shardInfo     []byte

	// front is the listener, the per-connection frame loop and the trace
	// sink; it provides Serve, Close, SetMaxConns and
	// SetTraceSink.
	front
}

// NewServer builds a server over an engine. maxBatch caps pairs per frame
// (<= 0 selects DefaultMaxBatch); larger batches are rejected with an error
// frame, not a dropped connection. engine may be nil for a distance-only
// server (SetDistEngine must then install the distance engine before Serve);
// query frames on a plane the server does not hold get an error frame.
func NewServer(engine *core.QueryEngine, maxBatch int) *Server {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	s := &Server{engine: engine, maxBatch: maxBatch}
	s.front.m, s.front.open = &s.metrics.frontMetrics, s.openConn
	return s
}

// SetDistEngine installs the distance engine answering op=dist frames. A
// server may hold either plane or both; the engines must agree on n when both
// are present. Must be called before Serve; never mutated under traffic.
func (s *Server) SetDistEngine(e *core.DistEngine) {
	s.dist = e
}

// Metrics returns the server's instrumentation, for registering on an
// obs.Registry (srv.Metrics().Register(reg)) or reading in tests.
func (s *Server) Metrics() *ServerMetrics { return &s.metrics }

// SetShedDepth arms load shedding: while more than depth frames are in flight
// across all connections (read but not yet answered), query and dist frames
// are answered with shed frames until the depth drains below depth/2.
// depth <= 0 disables shedding. Must be called before Serve.
func (s *Server) SetShedDepth(depth int) { s.shedDepth = depth }

// Shedding reports whether the server is currently refusing query frames
// under the SetShedDepth bound — the signal /readyz surfaces so load
// balancers route around an overloaded replica while it drains. Like the
// frame loop, it releases the latch once the queued depth has drained below
// half the bound, so readiness recovers even if the storm stops dead and no
// further frame re-evaluates the latch.
func (s *Server) Shedding() bool {
	if !s.shedding.Load() {
		return false
	}
	if s.metrics.QueuedFrames.Load() <= int64(s.shedDepth/2) {
		s.shedding.Store(false)
		return false
	}
	return true
}

// connBuffers is the pooled per-connection scratch and a Server connection's
// frameConn: the request and response payload buffers, growing to the
// connection's working-set size and then reused for every subsequent frame,
// and the frame's engine tally (here rather than on the frame loop's stack
// because it is flushed through the pairEngine interface, and whatever is
// passed through one escapes to the heap).
type connBuffers struct {
	reqBuf
	srv   *Server // while a connection holds the buffers
	resp  []byte
	tally core.QueryTally
}

var bufPool = sync.Pool{New: func() any { return new(connBuffers) }}

func (s *Server) openConn() frameConn {
	bufs := bufPool.Get().(*connBuffers)
	bufs.srv = s
	return bufs
}

func (b *connBuffers) answer(req []byte, start time.Time, readNs, queueNs int64) []byte {
	return b.srv.serveFrame(req, b, start, readNs, queueNs)
}

func (b *connBuffers) close() {
	b.srv = nil
	bufPool.Put(b)
}

// shouldShed is the per-frame admission decision for query work, one or two
// atomic loads on the hot path. The latch trips when the aggregate queued-
// frame depth passes shedDepth and releases only once the depth has drained
// to half that, so the server does not flap between serving and shedding at
// the boundary.
func (s *Server) shouldShed() bool {
	depth := s.shedDepth
	if depth <= 0 {
		return false
	}
	// The frame asking is itself inside the queued-frame window, so subtract
	// it: the decision is about the *other* work already queued. Without the
	// exclusion a shedDepth of 1 can never release — the asking frame alone
	// holds the gauge above depth/2 = 0 forever.
	q := s.metrics.QueuedFrames.Load() - 1
	if s.shedding.Load() {
		if q <= int64(depth/2) {
			s.shedding.Store(false)
			return false
		}
		return true
	}
	if q > int64(depth) {
		s.shedding.Store(true)
		s.metrics.ShedEvents.Inc()
		return true
	}
	return false
}

// serveFrame answers one fully-read request payload exactly as the frame
// loop sees it: strip the optional trace context, process the request,
// charge the per-status metrics, and — for traced, sampled or slow frames —
// append the response trace block and deposit the completed trace into the
// sink. start is the instant the payload finished reading; readNs and
// queueNs are the frame's already-measured read and queue-wait stages.
//
// The untraced, unsampled path through here performs zero heap allocations
// (CI-asserted by BenchmarkServeTraceDisabled): the trace state is a stack
// struct, and the SpanTally/Trace records are only materialized inside the
// capture branch.
func (s *Server) serveFrame(req []byte, bufs *connBuffers, start time.Time, readNs, queueNs int64) []byte {
	tc, req, op := beginTrace(req, s.sink)
	resp, queries := s.process(req, bufs)
	probeNs := int64(time.Since(start))
	s.metrics.observe(resp, queries, probeNs, tc.id)
	if op == opShardInfo {
		// The server's one shared block: written as it is — no trace block
		// appended in place — and not adopted as this connection's scratch.
		return resp
	}
	if queries > 0 {
		// The frame was answered on this plane's engine.
		s.engineOf(planeOf(op)).ObserveProbe(probeNs, tc.id)
	}
	total := queueNs + readNs + probeNs
	if slow := slowFrame(s.sink, total); tc.remote || tc.sample || slow {
		var t obs.SpanTally
		t.ID = tc.id
		t.Add(obs.StageQueue, obs.HopSelf, queueNs)
		t.Add(obs.StageRead, obs.HopSelf, readNs)
		t.Add(obs.StageProbe, obs.HopSelf, probeNs)
		resp = tc.finish(s.sink, &t, resp, op, queries, total, slow)
	}
	bufs.resp = resp[:0]
	return resp
}

// process answers one request payload, appending the response payload to
// bufs.resp (reused from its start) and returning it along with the number of
// adjacency queries answered. Malformed requests and engine errors produce
// error frames; only I/O can kill the connection. The shard-info response
// alone is not built in bufs: it is the server's shared block, read-only.
func (s *Server) process(req []byte, bufs *connBuffers) (out []byte, queries int) {
	resp := bufs.resp[:0]
	if len(req) == 0 {
		return appendErr(resp, "empty request"), 0
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		return appendInfo(resp, s.servedN()), 0
	case opShardInfo:
		s.shardInfoOnce.Do(func() { s.shardInfo = buildShardInfo(s.engine, s.servedN(), maxFramePayload) })
		return s.shardInfo, 0
	}
	pl := planeOf(op)
	if pl == nil {
		return appendBadOp(resp, op), 0
	}
	return s.servePairs(pl, body, bufs)
}

// servePairs answers one pair-batch frame on plane pl — the one serving loop
// under every plane: decode a block of pairs, hand it to the plane's engine
// kernel, encode the block's answers. One tally per frame, flushed on every
// exit: the engine's per-query metric cost on this path is two increments
// (see core.QueryTally), and the pairs probed ahead of a failing one still
// count. A malformed frame (count, width or length) is refused whole before
// any probe.
func (s *Server) servePairs(pl *plane, body []byte, bufs *connBuffers) (out []byte, queries int) {
	resp := bufs.resp[:0]
	// Shed before touching the payload: under overload the whole point is
	// that a refused frame costs one status byte, not a batch of probes.
	// Info and shard-info frames are never shed — they are O(1) and
	// routers need the handshake to survive an overloaded fleet.
	if s.shouldShed() {
		return appendShed(resp), 0
	}
	eng := s.engineOf(pl)
	if eng == nil {
		return appendErr(resp, "server holds no %s engine", pl.name), 0
	}
	count, w, fields, err := readPairHeader(body, s.maxBatch)
	if err != nil {
		return appendErr(resp, "%s", err), 0
	}
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(count))
	var blk [core.ProbeBlock][2]int
	var adj [core.ProbeBlock]bool
	var dist [core.ProbeBlock]int
	for i := 0; i < count; {
		k := min(core.ProbeBlock, count-i)
		fields = decodePairs(blk[:k], fields, w)
		ans := answers{adj: adj[:k]}
		if pl.ints {
			ans = answers{dist: dist[:k]}
		}
		// The lowest failing pair index wins.
		done, err := s.span(pl, blk[:k], ans, &bufs.tally)
		if err != nil {
			p := blk[done]
			resp = appendErr(resp[:0], "pair %d (%d,%d): %v", i+done, uint64(p[0]), uint64(p[1]), err)
			count = 0 // a span that ended early is not charged as a batch
			break
		}
		resp = ans.encode(resp)
		i += k
	}
	eng.FlushTally(&bufs.tally, count)
	return resp, count
}

// engineOf and span are the two places the server tells planes apart.
// engineOf returns the server's engine for pl, nil when it holds none.
func (s *Server) engineOf(pl *plane) pairEngine {
	switch {
	case pl == adjPlane && s.engine != nil:
		return s.engine
	case pl == distPlane && s.dist != nil:
		return s.dist
	}
	return nil
}

// span runs the kernel of pl's engine over one block of pairs, with the core
// span-kernel contract. It is a static switch, not a function value in the
// plane table, because whatever is passed through a function value escapes
// to the heap and the frame loop's block must stay on its stack: the kernel
// zeroes 1.3 KB of stack arrays on entry (two 512-byte header arrays, 256
// bytes of search words, 32 kind bytes) and then reads the block, and when a
// heap block's address happens to collide with those arrays modulo 4 KiB
// every one of its loads stalls (+15 ns/pair measured on 64-pair frames).
// On the stack the two sit at a fixed, non-colliding distance.
func (s *Server) span(pl *plane, pairs [][2]int, a answers, t *core.QueryTally) (answered int, err error) {
	if pl == distPlane {
		return s.dist.DistSpan(pairs, a.dist, t)
	}
	return s.engine.AdjacentSpan(pairs, a.adj, t)
}

// servedN is the vertex count of whichever plane the server holds (equal when
// it holds both).
func (s *Server) servedN() int {
	if s.engine != nil {
		return s.engine.N()
	}
	return s.dist.N()
}
