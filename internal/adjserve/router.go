package adjserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Router is the scatter-gather front of a sharded serving tier. Downstream it
// speaks the ordinary adjserve wire protocol — clients cannot tell a router
// from a single server holding the whole labeling — and upstream it holds
// upstreamLanes pipelined Clients per shard server (S shards × L lanes). Each
// query frame is split by the ownership rule, the per-shard sub-batches are
// written into the shards' clients on the downstream connection's lane, and
// the per-shard answers are scattered back into request order; frame k+1 is
// split and sent while frame k is still upstream (pipelinedConn).
//
// Routing rule (the invariant TestRouterRoutingInvariant pins down): the
// engines read one label per query — when both endpoints are fat, a fat
// bitmap, replicated to every shard; otherwise the thin body of the endpoint
// with the larger scheme identifier, held in full only by that vertex's owner
// (core/fatthin.go: a thin label need not list a neighbor ranked below it, so
// the other endpoint's owner cannot answer). So u==v and fat–fat pairs go to
// min(owner(u), owner(v)) — min rather than either owner keeps the choice
// deterministic — and every other pair to the owner of its larger-identifier
// endpoint; the sharded engine's residency guard (core.ErrNotResident) turns
// any violation of this rule into a loud error frame instead of a silent wrong
// answer. The rule needs every vertex's identifier, which is why the
// shard-info handshake carries the permutation block of the identifiers; a
// vertex is fat iff its identifier is below the fat count k, which the
// handshake carries beside it (each server checks the rule on its own
// labels), so route reads one vertex → identifier table, twice, and ownership
// is the range formula core.ShardOwner.
//
// Per-request failure semantics mirror the single server's: a shard error
// (or a dead shard) poisons only the query frames routed to it — each gets an
// error frame, the downstream connection stays up, and frames touching only
// live shards keep answering.
type Router struct {
	// lanes[l][s] is lane l's Client to upstream s, by shard index (partition)
	// or address order (replicas). Lane 0 holds the handshake's clients, the
	// others dial on first use. A downstream connection takes the next lane
	// round-robin (openConn) and keeps it, so two connections reach a shard on
	// two sockets and the shard answers them on two goroutines.
	lanes    [upstreamLanes][]*Client
	nextLane atomic.Uint32
	// info is the shard-info response this router answers — its fleet's, under
	// the trivial shard map — built once by the handshake; block, the fleet's
	// permutation block, is a view of it. ids[v] is vertex v's identifier,
	// decoded from the block once; k is the fat count: identifiers below it
	// are fat.
	info     []byte
	block    []byte
	ids      []int32
	k        int
	n        int
	maxBatch int
	// replicas marks a replica fleet: every upstream reported the trivial
	// 1-shard map, so each holds a whole store (the distance-serving
	// deployment; a single plain server is the degenerate 1-replica fleet).
	// Queries route by owner-of-u (floor(u*R/n)) purely for load spreading —
	// any replica could answer any pair.
	replicas bool

	metrics RouterMetrics
	bufPool sync.Pool // *routerConn; per-router because sizes scale with shard count

	// front is the downstream listener, the per-connection frame loop and
	// the trace sink; it provides Serve, SetMaxConns and
	// SetTraceSink, exactly as a Server's does.
	front
}

// upstreamLanes is how many connections the router holds to each upstream. One
// connection is one frame loop on the shard — one core — and a skewed workload
// sends more pairs to one shard than to the others, so with one lane that loop
// is the whole fleet's serial section. Labels are self-contained, so
// a shard answers on any number of connections at once. A constant like
// pipelineDepth: a few lanes cover the downstream connections that are busy at
// once, and a lane nobody uses is never dialled.
const upstreamLanes = 4

// NewRouter dials one server per address, performs the shard-info handshake
// with each, and admits the fleet as one of two coherent shapes:
//
//   - A partition: every shard reports the same vertex count, a shard count
//     equal to the fleet size, a distinct index (two servers claiming the
//     same shard — overlapping ownership — is a deployment error caught
//     here), and the same fat count and byte-identical permutation block
//     (one order has one encoding). clients are held in shard-index order,
//     so addrs may be listed in any order.
//   - A replica fleet: every upstream reports the trivial 1-shard map with
//     the same vertex count, fat count and permutation block (none, from
//     distance-only servers) — R whole copies of one store,
//     the distance-serving deployment (op=dist on a partition is refused;
//     distance stores are never sharded). clients stay in addr order.
//
// maxBatch caps pairs per downstream frame (<= 0 selects DefaultMaxBatch);
// upstream sub-batches are never larger, so upstream servers need an equal
// or larger limit.
func NewRouter(addrs []string, maxBatch int) (*Router, error) { return newRouter(addrs, maxBatch, nil) }

// newRouter is NewRouter with every upstream connection, every lane's, made
// by dial (nil dials TCP): the fuzz target runs a fleet over in-memory pipes.
func newRouter(addrs []string, maxBatch int, dial func(string) (net.Conn, error)) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("adjserve: router needs at least one shard address")
	}
	if len(addrs) >= int(obs.HopPeer) {
		// A trace labels an upstream's stages with its index in the hop byte.
		return nil, fmt.Errorf("adjserve: router: %d upstreams, at most %d fit beside the trace plane's peer and self hop labels", len(addrs), int(obs.HopPeer)-1)
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	r := &Router{maxBatch: maxBatch}
	r.lanes[0] = make([]*Client, len(addrs))
	if err := r.handshake(addrs, dial); err != nil {
		r.closeClients()
		return nil, err
	}
	for l := 1; l < upstreamLanes; l++ {
		r.lanes[l] = make([]*Client, len(addrs))
		for s, c := range r.lanes[0] {
			r.lanes[l][s] = NewClient(c.addr)
			r.lanes[l][s].MaxBatch = maxBatch
			r.lanes[l][s].DialFunc = dial
		}
	}
	r.metrics.Upstreams = make([]UpstreamMetrics, len(addrs))
	r.front.m, r.front.open = &r.metrics.frontMetrics, r.openConn
	return r, nil
}

// handshake dials every address, performs the shard-info handshake, and
// admits the fleet as a partition or a replica fleet (see NewRouter).
func (r *Router) handshake(addrs []string, dial func(string) (net.Conn, error)) error {
	// One goroutine per upstream: each builds (once) and sends a block that is
	// megabytes at serving scale, and nothing orders one against another.
	infos := make([]*ShardInfo, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialWith(addr, dial)
			if err != nil {
				errs[i] = fmt.Errorf("adjserve: router: shard %s: %w", addr, err)
				return
			}
			c.MaxBatch = r.maxBatch
			r.lanes[0][i] = c
			if infos[i], err = c.ShardInfo(); err != nil {
				errs[i] = fmt.Errorf("adjserve: router: shard %s handshake: %w", addr, err)
			}
		}()
	}
	wg.Wait()
	r.replicas = true
	for i, si := range infos {
		if errs[i] != nil {
			return errs[i]
		}
		if si.Map.Count != 1 || si.Map.Index != 0 {
			r.replicas = false
		}
	}
	ordered := make([]*Client, len(addrs))
	seen := make([]string, len(addrs)) // claimed address by shard index
	for i, si := range infos {
		if err := r.admit(addrs[i], si, seen); err != nil {
			return err
		}
		if !r.replicas {
			ordered[si.Map.Index] = r.lanes[0][i]
			seen[si.Map.Index] = addrs[i]
		}
	}
	if !r.replicas {
		r.lanes[0] = ordered
	}
	return nil
}

// admit validates one handshake against the fleet shape established by the
// upstreams admitted before it. The first one's block, which parseShardInfo
// decoded, becomes the router's routing table; every later block must be
// byte-equal to it.
func (r *Router) admit(addr string, si *ShardInfo, seen []string) error {
	noun := "replica"
	if !r.replicas {
		noun = "shard"
		if si.Map.Count != r.Shards() {
			return fmt.Errorf("adjserve: router: shard %s is %d of %d shards, fleet has %d servers",
				addr, si.Map.Index, si.Map.Count, r.Shards())
		}
		if prev := seen[si.Map.Index]; prev != "" {
			return fmt.Errorf("adjserve: router: shards %s and %s both claim index %d (overlapping ownership)",
				prev, addr, si.Map.Index)
		}
	}
	if len(si.IDBits) == 0 && !r.replicas {
		return fmt.Errorf("adjserve: router: shard %s sent no permutation block, which routing over a partition needs (a distance-only server, or one older than this router)", addr)
	}
	if r.info == nil {
		r.n, r.k = si.N, si.K
		r.info = append(appendShardInfo(nil, si.N, trivialShardMap, si.K), si.IDBits...)
		r.block = r.info[len(r.info)-len(si.IDBits):]
		if !r.replicas { // a replica fleet routes by owner-of-u, no identifiers
			r.ids = make([]int32, si.N)
			for id, v := range si.order {
				r.ids[v] = int32(id)
			}
		}
		return nil
	}
	if si.N != r.n {
		return fmt.Errorf("adjserve: router: %s %s serves %d vertices, fleet serves %d", noun, addr, si.N, r.n)
	}
	if si.K != r.k {
		return fmt.Errorf("adjserve: router: %s %s reports %d fat vertices, fleet has %d (mixed labelings?)", noun, addr, si.K, r.k)
	}
	if !bytes.Equal(si.IDBits, r.block) {
		return fmt.Errorf("adjserve: router: %s %s reports different identifiers than the fleet (mixed labelings?)", noun, addr)
	}
	return nil
}

func (r *Router) closeClients() {
	for _, lane := range r.lanes {
		for _, c := range lane {
			if c != nil {
				c.Close()
			}
		}
	}
}

// N returns the vertex count of the fronted labeling.
func (r *Router) N() int { return r.n }

// Shards returns the number of upstream servers (partition shards, or
// replicas when Replicas reports true).
func (r *Router) Shards() int { return len(r.lanes[0]) }

// Lanes returns the number of upstream lanes: connections per upstream
// server, each dialled when a downstream connection first uses it.
func (r *Router) Lanes() int { return upstreamLanes }

// Replicas reports whether the fleet handshook as identical whole-store
// replicas (owner-of-u routing, distance frames allowed) rather than a
// shard partition.
func (r *Router) Replicas() bool { return r.replicas }

// Metrics returns the router's instrumentation; RegisterMetrics exposes it
// (and every upstream client's) on a registry.
func (r *Router) Metrics() *RouterMetrics { return &r.metrics }

// RegisterMetrics exposes the router metrics plus each upstream client's
// metrics (labeled by shard index and lane) on reg, including a per-upstream
// in-flight gauge backed by Client.Pending. Call once per registry.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	r.metrics.Register(reg)
	reg.GaugeFunc("adjserve_router_upstream_lanes", "Upstream connections held per shard; a downstream connection uses one.",
		func() int64 { return upstreamLanes })
	for s := range r.lanes[0] {
		shard := strconv.Itoa(s)
		for l, lane := range r.lanes {
			lane[s].Metrics().RegisterWith(reg, "shard", shard, "lane", strconv.Itoa(l))
		}
		reg.GaugeFunc("adjserve_router_upstream_pending_frames",
			"Upstream frames written but not yet answered, by shard (all lanes).",
			func() (n int64) {
				for _, lane := range r.lanes {
					n += int64(lane[s].Pending())
				}
				return n
			}, "shard", shard)
	}
}

// route picks the shard that answers (u, v); both must be in range.
func (r *Router) route(u, v int) int {
	if r.replicas {
		return r.ownerOf(u)
	}
	count := r.Shards()
	iu, iv := int(r.ids[u]), int(r.ids[v])
	if iu == iv || iu < r.k && iv < r.k { // u == v, or both fat: any shard answers
		return min(core.ShardOwner(u, r.n, count), core.ShardOwner(v, r.n, count))
	}
	if iu < iv {
		u = v
	}
	return core.ShardOwner(u, r.n, count) // the larger identifier's owner
}

// ownerOf is the replica-fleet placement rule: replica floor(u*R/n) answers
// every query whose first endpoint is u. Any replica could — each holds the
// whole store — but keying on u alone spreads load and keeps each vertex's
// queries on one upstream, warming that replica's caches for exactly its
// slice of the id space.
func (r *Router) ownerOf(u int) int { return core.ShardOwner(u, r.n, r.Shards()) }

// Close drains the router exactly as Server.Close drains a server — stop
// accepting, let every connection finish the frames it has begun, wait — and
// then closes the upstream clients. Idempotent.
func (r *Router) Close() error {
	err := r.front.Close()
	r.closeClients()
	return err
}

// shardCall is one shard's slice of a begun pair-batch frame. pairs/idx/ans
// grow to the connection's working set and are reused by the slot's later
// frames; so is tally, where a traced frame accumulates the upstream client's
// stages and the shard's own stage report until finish merges them.
type shardCall struct {
	pairs [][2]int
	idx   []int32 // request positions of pairs, for the gather
	ans   answers
	sent  *sent // the sub-batch's receipt between begin and finish, else nil
	tally obs.SpanTally
}

// routerSlot is one frame's state between begin and finish.
type routerSlot struct {
	tc              traceCtx
	op              byte
	pl              *plane // nil: begin answered the frame itself, resp holds the answer
	count           int    // pairs in the frame
	resp            []byte
	start, begun    time.Time // payload read; begin done
	readNs, queueNs int64
	shards          []shardCall

	// shared, when non-nil, is the frame's answer in place of resp: the
	// router's read-only shard-info block, written as it is.
	shared []byte
}

// routerConn is the pooled per-connection state and a Router connection's
// pipelinedConn: the request payload, a slot per frame in flight and the
// request-ordered gather — all a frame needs, so the steady-state fan-out
// allocates nothing. begin runs on the frame loop's goroutine and owns dirty,
// finish on the finisher's and owns all; a slot passes between them with its frame.
type routerConn struct {
	reqBuf
	r     *Router
	lane  []*Client // by shard: this connection's upstream clients
	slots [pipelineDepth]routerSlot
	dirty []bool  // by shard: sub-batches begun since the last flush
	all   answers // request-ordered gather
}

func (r *Router) openConn() frameConn {
	b, ok := r.bufPool.Get().(*routerConn)
	if !ok {
		b = &routerConn{r: r, dirty: make([]bool, r.Shards())}
		for i := range b.slots {
			b.slots[i].shards = make([]shardCall, r.Shards())
		}
	}
	b.lane = r.lanes[(r.nextLane.Add(1)-1)%upstreamLanes]
	return b
}

func (b *routerConn) close() { b.r.bufPool.Put(b) }

func (b *routerConn) flush() {
	for s, dirty := range b.dirty {
		if dirty {
			b.lane[s].flush()
			b.dirty[s] = false
		}
	}
}

func (b *routerConn) ready(slot int) bool {
	for s := range b.slots[slot].shards {
		if sent := b.slots[slot].shards[s].sent; sent != nil && !sent.ready() {
			return false
		}
	}
	return true
}

// begin is the first half of the router's analogue of Server.serveFrame:
// strip an inbound trace context, decide whether to trace, scatter the request.
func (b *routerConn) begin(slot int, req []byte, start time.Time, readNs, queueNs int64) {
	sl := &b.slots[slot]
	sl.start, sl.readNs, sl.queueNs = start, readNs, queueNs
	sl.tc, req, sl.op = beginTrace(req, b.r.sink)
	sl.pl, sl.shared = nil, nil
	if sl.op == opShardInfo {
		sl.shared = b.r.info
	} else if local := b.r.scatter(req, b, sl); local != nil {
		sl.resp = local
	}
	sl.begun = time.Now()
	b.r.metrics.BegunFrames.Add(1)
}

// finish is the second half: join and gather the answers, charge the frame,
// and — for traced, sampled or slow frames — echo the router-hop stage report
// downstream and deposit the trace. The stages tile the frame's time at this
// hop: queue and read as the frame loop measured them, scatter = begin,
// upstream = begin done → answers joined (the wait behind the connection's
// earlier frame included), gather = joined → encoded. An uncaptured frame
// takes no timestamp the latency histograms do not need.
func (b *routerConn) finish(slot int) []byte {
	r, sl := b.r, &b.slots[slot]
	if sl.shared != nil {
		// Megabytes, and every connection's: never traced in place, never the
		// slot's scratch (compare Server.serveFrame).
		r.metrics.BegunFrames.Add(-1)
		return sl.shared
	}
	joined, queries := sl.begun, 0
	if sl.pl != nil {
		joined, queries = r.gather(b, sl)
	}
	end := time.Now()
	r.metrics.BegunFrames.Add(-1)
	routeNs := int64(end.Sub(sl.start))
	r.metrics.observe(sl.resp, queries, routeNs, sl.tc.id)
	total := sl.queueNs + sl.readNs + routeNs
	traced := sl.tc.remote || sl.tc.sample
	if slow := slowFrame(r.sink, total); traced || slow {
		var t obs.SpanTally
		t.ID = sl.tc.id
		t.Add(obs.StageScatter, obs.HopSelf, int64(sl.begun.Sub(sl.start)))
		t.Add(obs.StageUpstream, obs.HopSelf, int64(joined.Sub(sl.begun)))
		if traced && queries > 0 {
			for s := range sl.shards {
				if len(sl.shards[s].pairs) > 0 {
					mergeShardTrace(&t, &sl.shards[s].tally, uint8(s))
				}
			}
		}
		t.Add(obs.StageGather, obs.HopSelf, int64(end.Sub(joined)))
		t.Add(obs.StageQueue, obs.HopSelf, sl.queueNs)
		t.Add(obs.StageRead, obs.HopSelf, sl.readNs)
		sl.resp = sl.tc.finish(r.sink, &t, sl.resp, sl.op, queries, total, slow)
	}
	return sl.resp
}

// mergeShardTrace folds one shard call's tally into the frame tally: the
// upstream client's own stages (encode/flush/net at HopSelf) collapse into a
// single per-shard net stage, the shard server's stage report (HopPeer after
// the client's relabel) is re-labeled with the shard index, and anything else
// — already shard-labeled by a nested router — passes through unchanged.
func mergeShardTrace(dst, jt *obs.SpanTally, shard uint8) {
	var netNs int64
	for _, st := range jt.Stages() {
		switch st.Hop {
		case obs.HopSelf:
			netNs += st.Ns
		case obs.HopPeer:
			dst.Add(st.Stage, shard, st.Ns)
		default:
			dst.Add(st.Stage, st.Hop, st.Ns)
		}
	}
	dst.Add(obs.StageNet, shard, netNs)
}

// scatter begins one downstream request payload in sl. The info op is answered
// locally (as begin answers shard-info) — the router knows its fleet from the
// handshake, and presents itself as a single unsharded server so routers
// compose with every existing client (plquery -remote, plbench, even another
// router) — and so is every frame that fails the router's own checks: local
// is then the response. A pair batch goes through the one routing loop under
// every plane, sl.pl: decode and place each pair, then write each shard's
// sub-batch into its client, unflushed (see routerConn.flush) and traced if
// the frame is.
func (r *Router) scatter(req []byte, b *routerConn, sl *routerSlot) (local []byte) {
	resp := sl.resp[:0]
	if len(req) == 0 {
		return appendErr(resp, "empty request")
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		return appendInfo(resp, r.n)
	}
	pl := planeOf(op)
	if pl == nil {
		return appendBadOp(resp, op)
	}
	if pl.wholeStore && !r.replicas {
		return appendErr(resp, "%s queries require a replica fleet (this router fronts a %d-shard partition)", pl.name, r.Shards())
	}
	count, w, fields, err := readPairHeader(body, r.maxBatch)
	if err != nil {
		return appendErr(resp, "%s", err)
	}
	shards := sl.shards
	for s := range shards {
		shards[s].pairs, shards[s].idx = shards[s].pairs[:0], shards[s].idx[:0]
	}
	var blk [core.ProbeBlock][2]int
	for i := 0; i < count; {
		k := min(core.ProbeBlock, count-i)
		fields = decodePairs(blk[:k], fields, w)
		for _, p := range blk[:k] {
			if uint(p[0]) >= uint(r.n) || uint(p[1]) >= uint(r.n) {
				return appendErr(resp, "pair %d (%d,%d): vertex out of range [0,%d)", i, uint64(p[0]), uint64(p[1]), r.n)
			}
			sh := &shards[r.route(p[0], p[1])]
			sh.pairs = append(sh.pairs, p)
			sh.idx = append(sh.idx, int32(i))
			i++
		}
	}
	sl.pl, sl.count = pl, count
	for s := range shards {
		sh := &shards[s]
		sh.ans = sh.ans.sized(pl.ints, len(sh.pairs))
		if len(sh.pairs) == 0 {
			continue
		}
		var tr *obs.SpanTally
		if sl.tc.remote || sl.tc.sample {
			sh.tally.Reset()
			sh.tally.ID = sl.tc.id
			tr = &sh.tally
		}
		sh.sent = b.lane[s].send(pl, sh.pairs, sh.ans, tr, false)
		b.dirty[s] = true
	}
	return nil
}

// gather joins a scattered frame — every sub-batch is awaited whatever the
// others' verdicts, which recycles its calls — charges the upstreams, and
// folds the answers into request order in sl.resp; joined is the last arrival.
func (r *Router) gather(b *routerConn, sl *routerSlot) (joined time.Time, queries int) {
	// A shed from one shard poisons only the frames that needed it: they
	// answer with a shed frame (ErrShed, a retryable refusal, not a generic
	// failure) while frames touching only live shards keep answering. A
	// non-shed error, the more informative verdict, wins over a shed.
	joined = sl.begun
	shed, failed := false, -1
	var failure error
	for s := range sl.shards {
		sh := &sl.shards[s]
		if sh.sent == nil {
			continue
		}
		err := b.lane[s].await(sh.sent)
		sh.sent = nil
		joined = time.Now()
		r.metrics.Upstreams[s].observe(len(sh.pairs), joined.Sub(sl.begun), err)
		switch {
		case err == nil:
		case errors.Is(err, ErrShed):
			shed = true
		case failure == nil:
			failed, failure = s, err
		}
	}
	resp := sl.resp[:0]
	switch {
	case failure != nil:
		sl.resp = appendErr(resp, "%s %d (%d pairs): %v", sl.pl.noun, failed, len(sl.shards[failed].pairs), failure)
		return joined, 0
	case shed:
		sl.resp = appendShed(resp)
		return joined, 0
	}
	b.all = b.all.sized(sl.pl.ints, sl.count)
	for s := range sl.shards {
		b.all.scatter(sl.shards[s].idx, sl.shards[s].ans)
	}
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(sl.count))
	sl.resp = b.all.encode(resp)
	return joined, sl.count
}

// RouterMetrics is the router's always-on instrumentation: the downstream
// side mirrors ServerMetrics under the adjserve_router_* names, and Upstreams
// carries the per-shard fan-out counters (one entry per shard, exposed with a
// "shard" label). The upstream clients' own metrics (frames, bytes, redials,
// in-flight) are registered alongside by Router.RegisterMetrics.
type RouterMetrics struct {
	frontMetrics                   // the downstream side
	Upstreams    []UpstreamMetrics // by shard index
	BegunFrames  obs.Gauge         // frames between begin and finish, all connections
}

// UpstreamMetrics counts one shard's slice of the fan-out.
type UpstreamMetrics struct {
	Batches obs.Counter // sub-batches fanned out to this shard
	Pairs   obs.Counter // pairs routed to this shard
	Errors  obs.Counter // sub-batches that failed (error frame or dead shard)
	Sheds   obs.Counter // sub-batches the shard refused under load
	// LatencyNs: sub-batches written → this shard's answer collected, in
	// request order, so behind the connection's earlier frame: residence time.
	LatencyNs obs.Histogram
}

// observe charges one upstream sub-batch and its verdict.
func (um *UpstreamMetrics) observe(pairs int, d time.Duration, err error) {
	um.Batches.Inc()
	um.Pairs.Add(int64(pairs))
	um.LatencyNs.ObserveDuration(d)
	if errors.Is(err, ErrShed) {
		um.Sheds.Inc()
	} else if err != nil {
		um.Errors.Inc()
	}
}

// Register exposes the metrics on reg under the adjserve_router_* family
// names. Call once per registry (Router.RegisterMetrics also covers the
// upstream clients).
func (m *RouterMetrics) Register(reg *obs.Registry) {
	m.register(reg, "adjserve_router")
	reg.Gauge("adjserve_router_begun_frames", "Frames scattered upstream and not yet gathered, across all connections.", &m.BegunFrames)
	for s := range m.Upstreams {
		um := &m.Upstreams[s]
		shard := strconv.Itoa(s)
		reg.Counter("adjserve_router_upstream_batches_total", "Sub-batches fanned out, by shard.", &um.Batches, "shard", shard)
		reg.Counter("adjserve_router_upstream_pairs_total", "Pairs routed upstream, by shard.", &um.Pairs, "shard", shard)
		reg.Counter("adjserve_router_upstream_errors_total", "Failed upstream sub-batches, by shard.", &um.Errors, "shard", shard)
		reg.Counter("adjserve_router_upstream_sheds_total", "Upstream sub-batches refused under load, by shard.", &um.Sheds, "shard", shard)
		reg.Histogram("adjserve_router_upstream_latency_ns", "Nanoseconds from a frame's sub-batches written to this shard's answer collected (in request order, so the wait behind the connection's earlier pipelined frame is included), by shard.", &um.LatencyNs, "shard", shard)
	}
}
