package adjserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Router is the scatter-gather front of a sharded serving tier. Downstream it
// speaks the ordinary adjserve wire protocol — clients cannot tell a router
// from a single server holding the whole labeling — and upstream it holds one
// pipelined Client per shard server. Each query frame is split by the
// ownership rule, the per-shard sub-batches are fanned out concurrently, and
// the per-shard bit-vector answers are scattered back into request order.
//
// Routing rule (the invariant TestRouterRoutingInvariant pins down): a query
// (u,v) can only be answered by a shard holding a full thin body of u or v,
// or — when both are fat — by any shard, since fat–fat bitmaps are
// replicated everywhere. So a thin endpoint forces its owner, and every
// remaining case (u==v, thin–thin, fat–fat) goes to min(owner(u), owner(v)).
// Min rather than either owner keeps the choice deterministic; the sharded
// engine's residency guard (core.ErrNotResident) turns any violation of this
// rule into a loud error frame instead of a silent wrong answer. The rule
// needs the fat set, which is why the shard-info handshake carries the fat
// bitmap: naive min-owner alone would misroute a fat–thin pair whose fat
// endpoint has the smaller owner.
//
// Per-request failure semantics mirror the single server's: a shard error
// (or a dead shard) poisons only the query frames routed to it — each gets an
// error frame, the downstream connection stays up, and frames touching only
// live shards keep answering.
type Router struct {
	clients  []*Client // by shard index (partition) or address order (replicas)
	fatBits  []byte    // replicated fat set, bit v MSB-first within byte v/8
	n        int
	fn       core.ShardFn
	maxBatch int
	// replicas marks a replica fleet: every upstream reported the trivial
	// 1-shard map, so each holds a whole store (the distance-serving
	// deployment; a single plain server is the degenerate 1-replica fleet).
	// Queries route by owner-of-u (floor(u*R/n)) purely for load spreading —
	// any replica could answer any pair.
	replicas bool

	metrics RouterMetrics
	bufPool sync.Pool // *routerBufs; per-router because sizes scale with shard count

	// front is the downstream listener, the per-connection frame loop and
	// the trace sink; it provides Serve, ListenAndServe, SetMaxConns and
	// SetTraceSink, exactly as a Server's does.
	front
}

// NewRouter dials one server per address, performs the shard-info handshake
// with each, and admits the fleet as one of two coherent shapes:
//
//   - A partition: every shard reports the same vertex count and ownership
//     function, a shard count equal to the fleet size, a distinct index (two
//     servers claiming the same shard — overlapping ownership — is a
//     deployment error caught here), and a byte-identical fat bitmap.
//     clients are held in shard-index order, so addrs may be listed in any
//     order.
//   - A replica fleet: every upstream reports the trivial 1-shard map with
//     the same vertex count and fat bitmap — R whole copies of one store,
//     the distance-serving deployment (op=dist on a partition is refused;
//     distance stores are never sharded). clients stay in addr order.
//
// maxBatch caps pairs per downstream frame (<= 0 selects DefaultMaxBatch);
// upstream sub-batches are never larger, so upstream servers need an equal
// or larger limit.
func NewRouter(addrs []string, maxBatch int) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("adjserve: router needs at least one shard address")
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	r := &Router{
		clients:  make([]*Client, len(addrs)),
		maxBatch: maxBatch,
	}
	if err := r.handshake(addrs); err != nil {
		r.closeClients()
		return nil, err
	}
	r.metrics.Upstreams = make([]UpstreamMetrics, len(addrs))
	r.front.m, r.front.open = &r.metrics.frontMetrics, r.openConn
	return r, nil
}

// handshake dials every address, performs the shard-info handshake, and
// admits the fleet as a partition or a replica fleet (see NewRouter).
func (r *Router) handshake(addrs []string) error {
	infos := make([]*ShardInfo, len(addrs))
	r.replicas = true
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			return fmt.Errorf("adjserve: router: shard %s: %w", addr, err)
		}
		c.MaxBatch = r.maxBatch
		r.clients[i] = c
		if infos[i], err = c.ShardInfo(); err != nil {
			return fmt.Errorf("adjserve: router: shard %s handshake: %w", addr, err)
		}
		if infos[i].Map.Count != 1 || infos[i].Map.Index != 0 {
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
			ordered[si.Map.Index] = r.clients[i]
			seen[si.Map.Index] = addrs[i]
		}
	}
	if !r.replicas {
		r.clients = ordered
	}
	return nil
}

// admit validates one handshake against the fleet shape established by the
// upstreams admitted before it.
func (r *Router) admit(addr string, si *ShardInfo, seen []string) error {
	noun := "replica"
	if !r.replicas {
		noun = "shard"
		if si.Map.Count != len(r.clients) {
			return fmt.Errorf("adjserve: router: shard %s is %d of %d shards, fleet has %d servers",
				addr, si.Map.Index, si.Map.Count, len(r.clients))
		}
		if prev := seen[si.Map.Index]; prev != "" {
			return fmt.Errorf("adjserve: router: shards %s and %s both claim index %d (overlapping ownership)",
				prev, addr, si.Map.Index)
		}
	}
	if r.fatBits == nil {
		r.n, r.fn, r.fatBits = si.N, si.Map.Fn, si.FatBits
		return nil
	}
	if si.N != r.n {
		return fmt.Errorf("adjserve: router: %s %s serves %d vertices, fleet serves %d", noun, addr, si.N, r.n)
	}
	if si.Map.Fn != r.fn {
		return fmt.Errorf("adjserve: router: %s %s uses ownership function %s, fleet uses %s", noun, addr, si.Map.Fn, r.fn)
	}
	if !bytes.Equal(si.FatBits, r.fatBits) {
		return fmt.Errorf("adjserve: router: %s %s reports a different fat set than the fleet (mixed labelings?)", noun, addr)
	}
	return nil
}

func (r *Router) closeClients() {
	for _, c := range r.clients {
		if c != nil {
			c.Close()
		}
	}
}

// N returns the vertex count of the fronted labeling.
func (r *Router) N() int { return r.n }

// Shards returns the number of upstream servers (partition shards, or
// replicas when Replicas reports true).
func (r *Router) Shards() int { return len(r.clients) }

// Replicas reports whether the fleet handshook as identical whole-store
// replicas (owner-of-u routing, distance frames allowed) rather than a
// shard partition.
func (r *Router) Replicas() bool { return r.replicas }

// Metrics returns the router's instrumentation; RegisterMetrics exposes it
// (and every upstream client's) on a registry.
func (r *Router) Metrics() *RouterMetrics { return &r.metrics }

// RegisterMetrics exposes the router metrics plus each upstream client's
// metrics (labeled by shard index) on reg, including a per-upstream in-flight
// gauge backed by Client.Pending. Call once per registry.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	r.metrics.Register(reg)
	for i, c := range r.clients {
		shard := strconv.Itoa(i)
		c.Metrics().RegisterWith(reg, "shard", shard)
		cl := c
		reg.GaugeFunc("adjserve_router_upstream_pending_frames",
			"Upstream frames written but not yet answered, by shard.",
			func() int64 { return int64(cl.Pending()) }, "shard", shard)
	}
}

// fat reports whether vertex v is fat on the fronted labeling.
func (r *Router) fat(v int) bool {
	return r.fatBits[v>>3]&(1<<(7-uint(v)&7)) != 0
}

// route picks the shard that answers (u, v); both must be in range.
func (r *Router) route(u, v int) int {
	if r.replicas {
		return r.ownerOf(u)
	}
	count := len(r.clients)
	ou := core.ShardOwner(r.fn, u, r.n, count)
	ov := core.ShardOwner(r.fn, v, r.n, count)
	uFat, vFat := r.fat(u), r.fat(v)
	switch {
	case u == v || uFat == vFat:
		return min(ou, ov)
	case !uFat:
		return ou
	default:
		return ov
	}
}

// ownerOf is the replica-fleet placement rule: replica floor(u*R/n) answers
// every query whose first endpoint is u. Any replica could — each holds the
// whole store — but keying on u alone spreads load and keeps each vertex's
// queries on one upstream, warming that replica's result cache for exactly
// its slice of the id space.
func (r *Router) ownerOf(u int) int {
	return int(int64(u) * int64(len(r.clients)) / int64(r.n))
}

// Close drains the router exactly as Server.Close drains a server — stop
// accepting, let every connection finish its in-flight frame, wait — and
// then closes the upstream clients. Idempotent.
func (r *Router) Close() error {
	err := r.front.Close()
	r.closeClients()
	return err
}

// shardJob is one shard's slice of a pair-batch frame, handed to that shard's
// worker goroutine and joined on wg. pairs/idx/ans grow to the connection's
// working set and are reused for every subsequent frame.
type shardJob struct {
	pl    *plane
	pairs [][2]int
	idx   []int32 // request positions of pairs, for the scatter
	ans   answers
	err   error
	wg    *sync.WaitGroup
	// tr, when non-nil, selects the traced upstream call and points at tally,
	// which then accumulates the upstream client's stages plus the shard's own
	// stage report, merged into the frame's tally (relabeled with the shard
	// index) after the join. The tally lives in the pooled job so the traced
	// fan-out allocates nothing per frame either.
	tr    *obs.SpanTally
	tally obs.SpanTally
}

// routerBufs is the pooled per-connection scratch and a Router connection's
// frameConn: the request and response payloads plus one shardJob (sub-batch,
// scatter indexes, answers) per shard, the request-ordered answer gather, and the
// join WaitGroup — everything a frame needs, so the steady-state fan-out
// performs zero heap allocations. chans feed the connection's worker
// goroutines while a connection holds the buffers.
type routerBufs struct {
	reqBuf
	r     *Router
	chans []chan *shardJob
	resp  []byte
	jobs  []shardJob
	all   answers // request-ordered gather
	wg    sync.WaitGroup
}

// openConn hands a downstream connection its buffers and starts one
// persistent worker goroutine per shard, fed over a buffered channel, so the
// per-frame fan-out is channel sends and a WaitGroup join — no goroutine
// spawning on the query path.
func (r *Router) openConn() frameConn {
	b, ok := r.bufPool.Get().(*routerBufs)
	if !ok {
		b = &routerBufs{r: r, jobs: make([]shardJob, len(r.clients)), chans: make([]chan *shardJob, len(r.clients))}
		for s := range b.jobs {
			b.jobs[s].wg = &b.wg
		}
	}
	for s := range b.chans {
		b.chans[s] = make(chan *shardJob, 1)
		go r.worker(s, b.chans[s])
	}
	return b
}

func (b *routerBufs) answer(req []byte, start time.Time, readNs, queueNs int64) ([]byte, int) {
	return b.r.routeFrame(req, b, start, readNs, queueNs)
}

func (b *routerBufs) close() {
	for _, ch := range b.chans {
		close(ch)
	}
	b.r.bufPool.Put(b)
}

// worker answers one shard's sub-batches for one downstream connection.
func (r *Router) worker(s int, jobs <-chan *shardJob) {
	c, m := r.clients[s], &r.metrics.Upstreams[s]
	for job := range jobs {
		start := time.Now()
		job.err = c.many(job.pl, job.pairs, job.ans, job.tr)
		m.observe(len(job.pairs), time.Since(start), job.err)
		job.wg.Done()
	}
}

// routeFrame is the router's analogue of Server.serveFrame: it strips an
// inbound trace context, decides whether this frame is captured (remote trace,
// self-sample, or slow), answers via process, and on capture echoes the
// router-hop stage report back downstream and deposits the completed trace.
// start is the instant the payload finished reading; readNs and queueNs are
// the header→payload read time and the pre-read queue wait.
//
// The untraced path materializes no SpanTally and performs no extra work
// beyond the timestamps already taken by the frame loop, preserving the
// zero-allocation router batch path.
func (r *Router) routeFrame(req []byte, bufs *routerBufs, start time.Time, readNs, queueNs int64) ([]byte, int) {
	tc, req, op := beginTrace(req, r.sink)
	// Captured frames thread a tally through process so the fan-out records
	// scatter/upstream/gather windows and per-shard sub-traces. Slow-only
	// frames (detected after the fact) get the coarse queue/read/route stages.
	var t obs.SpanTally
	var tp *obs.SpanTally
	if tc.remote || tc.sample {
		t.ID = tc.id
		tp = &t
	}
	resp, queries := r.process(req, bufs, tp)
	routeNs := int64(time.Since(start))
	r.metrics.observe(resp, queries, routeNs, tc.id)
	total := queueNs + readNs + routeNs
	if slow := slowFrame(r.sink, total); tp != nil || slow {
		if tp == nil {
			// Slow-only capture: no fan-out detail was recorded, attribute the
			// whole routing window as one upstream stage.
			t.Add(obs.StageUpstream, obs.HopSelf, routeNs)
		}
		t.Add(obs.StageQueue, obs.HopSelf, queueNs)
		t.Add(obs.StageRead, obs.HopSelf, readNs)
		resp = tc.finish(r.sink, &t, resp, op, queries, total, slow)
	}
	bufs.resp = resp[:0]
	return resp, queries
}

// mergeShardTrace folds one shard job's tally into the frame tally: the
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

// process answers one downstream request payload, appending the response to
// bufs.resp (reused from its start). Info ops are answered locally — the
// router already knows the fleet's n and fat set from the handshake, and
// presents itself as a single unsharded server so routers compose with every
// existing client (plquery -remote, plbench, even another router). A non-nil
// tp marks the frame as traced: the pair-batch path records its fan-out
// stages into it and threads the trace upstream.
func (r *Router) process(req []byte, bufs *routerBufs, tp *obs.SpanTally) (out []byte, queries int) {
	resp := bufs.resp[:0]
	if len(req) == 0 {
		return appendErr(resp, "empty request"), 0
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		return appendInfo(resp, r.n), 0
	case opShardInfo:
		return append(appendShardInfo(resp, r.n, trivialShardMap), r.fatBits...), 0
	}
	pl := planeOf(op)
	if pl == nil {
		return appendErr(resp, "unknown op %d", op), 0
	}
	return r.routePairs(pl, body, resp, bufs, tp)
}

// routePairs answers one pair-batch frame on plane pl — the one routing loop
// under every plane: decode and place each pair, fan the per-shard
// sub-batches out, join, and gather the answers back into request order.
func (r *Router) routePairs(pl *plane, body, resp []byte, bufs *routerBufs, tp *obs.SpanTally) (out []byte, queries int) {
	if pl.wholeStore && !r.replicas {
		return appendErr(resp, "%s queries require a replica fleet (this router fronts a %d-shard partition)", pl.name, len(r.clients)), 0
	}
	count64, k := binary.Uvarint(body)
	if k <= 0 {
		return appendErr(resp, "bad pair count"), 0
	}
	if count64 > uint64(r.maxBatch) {
		return appendErr(resp, "batch of %d pairs exceeds limit %d", count64, r.maxBatch), 0
	}
	body, count := body[k:], int(count64)
	var tScatter time.Time
	if tp != nil {
		tScatter = time.Now()
	}
	jobs := bufs.jobs
	for s := range jobs {
		job := &jobs[s]
		job.pl, job.pairs, job.idx, job.err, job.tr = pl, job.pairs[:0], job.idx[:0], nil, nil
		if tp != nil {
			job.tally.Reset()
			job.tally.ID = tp.ID
			job.tr = &job.tally
		}
	}
	var blk [core.ProbeBlock][2]int
	for i := 0; i < count; {
		k, rest, bad := decodePairs(blk[:min(core.ProbeBlock, count-i)], body)
		body = rest
		for _, p := range blk[:k] {
			if uint(p[0]) >= uint(r.n) || uint(p[1]) >= uint(r.n) {
				return appendErr(resp, "pair %d (%d,%d): vertex out of range [0,%d)", i, uint64(p[0]), uint64(p[1]), r.n), 0
			}
			job := &jobs[r.route(p[0], p[1])]
			job.pairs = append(job.pairs, p)
			job.idx = append(job.idx, int32(i))
			i++
		}
		if bad != "" {
			return appendErr(resp, "pair %d: bad %s", i, bad), 0
		}
	}
	if len(body) != 0 {
		return appendErr(resp, "%d trailing bytes after %d pairs", len(body), count), 0
	}
	// Scatter phase: one channel send per active shard, answered concurrently
	// by the connection's workers, joined on the shared WaitGroup.
	active := 0
	for s := range jobs {
		jobs[s].ans = jobs[s].ans.sized(pl.ints, len(jobs[s].pairs))
		if len(jobs[s].pairs) > 0 {
			active++
		}
	}
	var tUpstream time.Time
	if tp != nil {
		tUpstream = time.Now()
		tp.Add(obs.StageScatter, obs.HopSelf, int64(tUpstream.Sub(tScatter)))
	}
	bufs.wg.Add(active)
	for s := range jobs {
		if len(jobs[s].pairs) > 0 {
			bufs.chans[s] <- &jobs[s]
		}
	}
	bufs.wg.Wait()
	var tGather time.Time
	if tp != nil {
		tGather = time.Now()
		tp.Add(obs.StageUpstream, obs.HopSelf, int64(tGather.Sub(tUpstream)))
	}
	// A shed from one shard poisons only the sub-batches routed to it: the
	// downstream frame that needed the overloaded shard answers with a shed
	// frame (so the client sees ErrShed, a retryable refusal, not a generic
	// failure), while frames touching only live shards keep answering. A
	// non-shed error wins over a shed when both happen in one frame — it is
	// the more informative verdict.
	shed := false
	for s := range jobs {
		if err := jobs[s].err; err != nil {
			if errors.Is(err, ErrShed) {
				shed = true
				continue
			}
			return appendErr(resp, "%s %d (%d pairs): %v", pl.noun, s, len(jobs[s].pairs), err), 0
		}
	}
	if shed {
		return appendShed(resp), 0
	}
	// Gather phase: fold each shard's answers back into request order, then
	// encode them as one frame.
	bufs.all = bufs.all.sized(pl.ints, count)
	for s := range jobs {
		bufs.all.scatter(jobs[s].idx, jobs[s].ans)
	}
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(count))
	resp = bufs.all.encode(resp)
	if tp != nil {
		for s := range jobs {
			if len(jobs[s].pairs) > 0 {
				mergeShardTrace(tp, &jobs[s].tally, uint8(s))
			}
		}
		tp.Add(obs.StageGather, obs.HopSelf, int64(time.Since(tGather)))
	}
	return resp, count
}

// RouterMetrics is the router's always-on instrumentation: the downstream
// side mirrors ServerMetrics under the adjserve_router_* names, and Upstreams
// carries the per-shard fan-out counters (one entry per shard, exposed with a
// "shard" label). The upstream clients' own metrics (frames, bytes, redials,
// in-flight) are registered alongside by Router.RegisterMetrics.
type RouterMetrics struct {
	frontMetrics                   // the downstream side
	Upstreams    []UpstreamMetrics // by shard index
}

// UpstreamMetrics counts one shard's slice of the fan-out.
type UpstreamMetrics struct {
	Batches   obs.Counter   // sub-batches fanned out to this shard
	Pairs     obs.Counter   // pairs routed to this shard
	Errors    obs.Counter   // sub-batches that failed (error frame or dead shard)
	Sheds     obs.Counter   // sub-batches the shard refused under load
	LatencyNs obs.Histogram // upstream round-trip per sub-batch
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
	for s := range m.Upstreams {
		um := &m.Upstreams[s]
		shard := strconv.Itoa(s)
		reg.Counter("adjserve_router_upstream_batches_total", "Sub-batches fanned out, by shard.", &um.Batches, "shard", shard)
		reg.Counter("adjserve_router_upstream_pairs_total", "Pairs routed upstream, by shard.", &um.Pairs, "shard", shard)
		reg.Counter("adjserve_router_upstream_errors_total", "Failed upstream sub-batches, by shard.", &um.Errors, "shard", shard)
		reg.Counter("adjserve_router_upstream_sheds_total", "Upstream sub-batches refused under load, by shard.", &um.Sheds, "shard", shard)
		reg.Histogram("adjserve_router_upstream_latency_ns", "Upstream sub-batch round-trip in nanoseconds, by shard.", &um.LatencyNs, "shard", shard)
	}
}
