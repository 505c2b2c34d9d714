package adjserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Redial policy defaults. A lost connection is redialed transparently, but
// not forever: attempts are capped and spaced by exponential backoff, so a
// dead server surfaces as an error carrying the last dial failure instead of
// an infinitely retrying call.
const (
	// defaultMaxDialAttempts is the consecutive dial-attempt cap per
	// reconnect when Client.maxDialAttempts is unset.
	defaultMaxDialAttempts = 4
	// defaultRedialBackoff is the initial inter-attempt backoff when
	// Client.redialBackoff is unset; it doubles per failure up to
	// maxRedialBackoff.
	defaultRedialBackoff = 25 * time.Millisecond
	maxRedialBackoff     = 1 * time.Second
)

// Client is a pipelining client for one adjacency server. A batch call
// splits its pairs into frames of at most MaxBatch, writes them all before
// reading any response, and lets the server's in-order answering match
// responses back up — so one TCP round trip covers an arbitrarily large
// batch. Calls are safe for concurrent goroutines, which share (and
// pipeline over) a single connection; if the connection dies, the next call
// transparently redials — bounded by 4 dial attempts with exponential
// backoff, so a dead server surfaces as the last dial error rather than a
// silent retry loop.
type Client struct {
	// MaxBatch caps pairs per request frame (<= 0 selects DefaultMaxBatch).
	// It must not exceed the server's limit or batches above that limit are
	// rejected remotely.
	MaxBatch int

	// maxDialAttempts caps consecutive dial attempts per reconnect (<= 0
	// selects defaultMaxDialAttempts). After that many consecutive failures
	// the triggering call returns the last dial error. Set only by tests.
	maxDialAttempts int

	// redialBackoff is the initial delay between dial attempts (<= 0
	// selects defaultRedialBackoff), doubling per consecutive failure up to
	// one second with ±20% jitter per sleep. The backoff sleeps while holding
	// the client's connection lock, so concurrent calls wait out the same
	// reconnect rather than piling up their own dial storms; the jitter keeps
	// a fleet of such clients (a Router holds one per shard lane) from
	// synchronizing their reconnect storms after a shared server restart.
	// Set only by tests.
	redialBackoff time.Duration

	// DialFunc, when non-nil, replaces net.Dial("tcp", addr) for every
	// connection this client establishes. It is the hook chaos harnesses use
	// to interpose throttled or fault-injecting connections (plload's
	// slow-client mode) without the client growing transport knowledge. Set
	// before the first call; never mutated afterwards.
	DialFunc func(addr string) (net.Conn, error)

	addr string
	mu   sync.Mutex // guards conn lifecycle and interleaves frame writes
	cc   *clientConn
	req  []byte // pooled request-encoding buffer, guarded by mu

	everConnected bool // a redial (vs first dial) is a reconnect, for metrics
	metrics       ClientMetrics

	// sleep and jitterFloat are the backoff clock and jitter source,
	// swappable by tests (fake clock, deterministic rand); nil selects
	// time.Sleep and a lazily seeded rand.Float64. Guarded by mu like the
	// backoff itself.
	sleep       func(time.Duration)
	jitterFloat func() float64
	jitterRNG   *rand.Rand
}

// backoffJitterFrac is the redial jitter amplitude: each backoff sleep is
// scaled by a factor drawn uniformly from [1-frac, 1+frac].
const backoffJitterFrac = 0.2

// jitterBackoff scales d by the client's jitter source. Exposed as a method
// so the fake-clock test exercises exactly the production path.
func (c *Client) jitterBackoff(d time.Duration) time.Duration {
	if c.jitterFloat == nil {
		if c.jitterRNG == nil {
			c.jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		c.jitterFloat = c.jitterRNG.Float64
	}
	f := 1 - backoffJitterFrac + 2*backoffJitterFrac*c.jitterFloat()
	return time.Duration(float64(d) * f)
}

// NewClient returns a client that dials lazily: the first call establishes
// the connection (with the same bounded-retry policy as any redial). Useful
// when the server may come up after the client, or to configure the redial
// knobs before any network traffic.
func NewClient(addr string) *Client { return &Client{addr: addr} }

// Dial connects to an adjacency server eagerly, returning the first
// connection error (after the client's bounded retry policy) instead of
// deferring it to the first call.
func Dial(addr string) (*Client, error) { return dialWith(addr, nil) }

// dialWith is Dial with DialFunc set to dial before the first connection.
func dialWith(addr string, dial func(string) (net.Conn, error)) (*Client, error) {
	c := NewClient(addr)
	c.DialFunc = dial
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Metrics returns the client's instrumentation, for registering on an
// obs.Registry (c.Metrics().Register(reg)) or reading in tests.
func (c *Client) Metrics() *ClientMetrics { return &c.metrics }

// Close tears down the connection. In-flight calls fail with ErrClosed;
// subsequent calls redial.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cc != nil {
		c.cc.nc.Close()
		c.cc = nil
	}
	return nil
}

// call is one outstanding request: the response fills ans (a pair batch, in
// whichever shape the caller sized it), infoN (info) or shard (shard-info),
// and done delivers the per-call verdict exactly once. tr, when non-nil,
// receives the response's trace block (the reader goroutine writes it
// strictly before the done send, so the waiting caller reads it race-free).
type call struct {
	ans   answers
	infoN *int
	shard *ShardInfo
	tr    *obs.SpanTally
	done  chan error
}

// callPool recycles calls (and their verdict channels) across batches, so the
// steady-state encode path of a pair batch performs zero heap allocations.
var callPool = sync.Pool{New: func() any { return &call{done: make(chan error, 1)} }}

func getCall() *call { return callPool.Get().(*call) }

// putCall returns a call to the pool. Callers normally hand back a call whose
// verdict they consumed; the non-blocking drain covers the one exception — a
// send-side failure where fail() already buffered the verdict nobody reads —
// so a recycled call can never surface a stale verdict.
func putCall(ca *call) {
	select {
	case <-ca.done:
	default:
	}
	*ca = call{done: ca.done}
	callPool.Put(ca)
}

// sent is the send half's pooled receipt for one pair batch: the calls await
// collects, a send-side failure, and a traced batch's tally and timings so
// far (peerBefore is what t already held for HopPeer, see recordCallStages).
type sent struct {
	calls                         []*call
	err                           error
	t                             *obs.SpanTally
	start                         time.Time
	encodeNs, flushNs, peerBefore int64
}

var sentPool = sync.Pool{New: func() any { return new(sent) }}

// ready reports whether await would return without blocking.
func (b *sent) ready() bool {
	for _, ca := range b.calls {
		if len(ca.done) == 0 {
			return false
		}
	}
	return true
}

// clientConn is one live connection plus its FIFO of outstanding calls. The
// reader goroutine owns the receive side; writers enqueue under the queue
// lock, so a call is either matched by the reader or failed at shutdown —
// never lost.
type clientConn struct {
	nc      net.Conn
	bw      *bufio.Writer
	metrics *ClientMetrics // owning client's, for in-flight accounting
	// hdr is the frame-header encode scratch, shared by all frame writers
	// under the client's mu. A function-local array would be re-heap-allocated
	// per frame (bufio may hand large writes straight to the net.Conn
	// interface, so the slice argument escapes).
	hdr [frameHeaderLen]byte

	qmu sync.Mutex
	// pending[head:] is the FIFO of outstanding calls. Popping advances head
	// instead of re-slicing, and the slice resets to its start whenever the
	// queue drains, so the backing array is reused frame after frame — the
	// enqueue path allocates only while the pipelining depth is still growing.
	pending  []*call
	head     int
	shutdown bool
	err      error
}

func (cc *clientConn) enqueue(ca *call) error {
	cc.qmu.Lock()
	defer cc.qmu.Unlock()
	if cc.shutdown {
		return cc.err
	}
	cc.pending = append(cc.pending, ca)
	cc.metrics.InFlight.Add(1)
	return nil
}

func (cc *clientConn) pop() *call {
	cc.qmu.Lock()
	defer cc.qmu.Unlock()
	if cc.head == len(cc.pending) {
		return nil
	}
	ca := cc.pending[cc.head]
	cc.pending[cc.head] = nil
	cc.head++
	if cc.head == len(cc.pending) {
		cc.pending = cc.pending[:0]
		cc.head = 0
	}
	cc.metrics.InFlight.Add(-1)
	return ca
}

// fail marks the connection dead and delivers err to every outstanding call.
func (cc *clientConn) fail(err error) {
	cc.qmu.Lock()
	if cc.shutdown {
		cc.qmu.Unlock()
		return
	}
	cc.shutdown = true
	cc.err = err
	pending := cc.pending[cc.head:]
	cc.pending = nil
	cc.head = 0
	cc.metrics.InFlight.Add(-int64(len(pending)))
	cc.qmu.Unlock()
	cc.nc.Close()
	for _, ca := range pending {
		ca.done <- err
	}
}

// ensureConn returns the live connection, dialing a fresh one if the
// previous connection has shut down. A reconnect tries at most
// maxDialAttempts dials with exponential backoff between them and then
// surfaces the last dial error — transparent redial is bounded, never an
// infinite silent retry. Callers hold c.mu, so one caller performs the
// reconnect while the rest queue behind it.
func (c *Client) ensureConn() (*clientConn, error) {
	if c.cc != nil {
		c.cc.qmu.Lock()
		dead := c.cc.shutdown
		c.cc.qmu.Unlock()
		if !dead {
			return c.cc, nil
		}
		c.cc = nil
	}
	attempts := c.maxDialAttempts
	if attempts <= 0 {
		attempts = defaultMaxDialAttempts
	}
	backoff := c.redialBackoff
	if backoff <= 0 {
		backoff = defaultRedialBackoff
	}
	dial := c.DialFunc
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleep(c.jitterBackoff(backoff))
			if backoff *= 2; backoff > maxRedialBackoff {
				backoff = maxRedialBackoff
			}
		}
		c.metrics.DialAttempts.Inc()
		nc, err := dial(c.addr)
		if err != nil {
			c.metrics.DialFailures.Inc()
			lastErr = err
			continue
		}
		if c.everConnected {
			c.metrics.Redials.Inc()
		}
		c.everConnected = true
		cc := &clientConn{nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), metrics: &c.metrics}
		go cc.readLoop()
		c.cc = cc
		return cc, nil
	}
	return nil, fmt.Errorf("adjserve: dial %s: %d consecutive failures, last: %w", c.addr, attempts, lastErr)
}

// readLoop receives response frames and delivers them to calls in FIFO
// order. Any framing violation or I/O error kills the connection and fails
// everything outstanding.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	var hdr [frameHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:]))
		if plen > maxFramePayload {
			cc.fail(fmt.Errorf("%w: response frame of %d bytes", ErrClosed, plen))
			return
		}
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		cc.metrics.BytesIn.Add(int64(frameHeaderLen + plen))
		if plen > 0 && payload[0] == statusShed {
			cc.metrics.ShedFrames.Inc()
		}
		ca := cc.pop()
		if ca == nil {
			cc.fail(fmt.Errorf("%w: unsolicited response frame", ErrClosed))
			return
		}
		if err := deliver(ca, payload); err != nil {
			ca.done <- err
			cc.fail(err)
			return
		}
		if cap(payload) > maxReadScratch {
			payload = nil // a handshake's megabytes, not the steady state's
		}
	}
}

// maxReadScratch caps the response buffer a connection's reader keeps between
// frames. Pair-batch answers stay far below it (DefaultMaxBatch distances are
// 128 KiB); a shard-info response can be megabytes, is read once per
// connection, and must not stay allocated for the connection's life.
const maxReadScratch = 1 << 20

// deliver parses one response payload into its call. A non-nil return is a
// protocol-level corruption that must kill the connection; per-call server
// errors are delivered through the call and return nil.
func deliver(ca *call, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty response", ErrClosed)
	}
	status, body := payload[0], payload[1:]
	// A traced OK response echoes opTraceFlag on the status byte and appends
	// a trace block after the normal body; strip the flag here and hand the
	// block to the per-shape parsers below (old servers never set the bit).
	traced := status&opTraceFlag != 0
	status &^= opTraceFlag
	switch status {
	case statusShed:
		// The server refused the request under load; the connection stays up
		// (unless the shed answered an admission rejection, in which case the
		// server closes it right after and the next call redials). The single
		// package-level ErrShed keeps this path allocation-free.
		ca.done <- ErrShed
		return nil
	case statusErr:
		msgLen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < msgLen {
			return fmt.Errorf("%w: truncated error frame", ErrClosed)
		}
		ca.done <- &RemoteError{Msg: string(body[n : n+int(msgLen)])}
		return nil
	case statusOK:
		var err error
		switch {
		case ca.infoN != nil:
			err = deliverInfo(ca, body)
		case ca.shard != nil:
			err = parseShardInfo(ca.shard, body)
		default:
			err = deliverAnswers(ca, body, traced)
		}
		if err == nil {
			ca.done <- nil
		}
		return err
	default:
		return fmt.Errorf("%w: unknown response status %d", ErrClosed, status)
	}
}

// deliverInfo parses an info response body: the vertex count as one minimal
// uvarint and nothing after it. A count no int holds is refused, not wrapped
// negative.
func deliverInfo(ca *call, body []byte) error {
	v, n := binary.Uvarint(body)
	if n <= 0 || n > 1 && body[n-1] == 0 {
		return fmt.Errorf("%w: bad info response vertex count", ErrClosed)
	}
	if n != len(body) {
		return fmt.Errorf("%w: %d bytes after the info response's vertex count", ErrClosed, len(body)-n)
	}
	if v > math.MaxInt {
		return fmt.Errorf("%w: info response counts %d vertices", ErrClosed, v)
	}
	*ca.infoN = int(v)
	return nil
}

// deliverAnswers parses a pair-batch response body into the call's answers
// (packed bits or uvarints, by their shape), then the trace block a traced response appends.
func deliverAnswers(ca *call, body []byte, traced bool) error {
	count, n := binary.Uvarint(body)
	if n <= 0 || count != uint64(ca.ans.len()) {
		return fmt.Errorf("%w: response for %d pairs, asked %d", ErrClosed, count, ca.ans.len())
	}
	rest, err := ca.ans.decode(body[n:])
	if err != nil {
		return err
	}
	if traced {
		return deliverTrace(ca, rest)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %d answers", ErrClosed, len(rest), count)
	}
	return nil
}

// deliverTrace merges a response's appended trace block into the call's
// tally, relabeling the peer's own stages to HopPeer (shard-labeled stages a
// router gathered pass through). A call that didn't ask for tracing still
// validates and discards the block, keeping the framing check total.
func deliverTrace(ca *call, block []byte) error {
	if ca.tr == nil {
		var discard obs.SpanTally
		return parseTraceBlock(block, &discard, obs.HopPeer)
	}
	return parseTraceBlock(block, ca.tr, obs.HopPeer)
}

// sendFrame enqueues ca and writes one frame. Callers hold c.mu, so frames
// from concurrent callers interleave at whole-frame granularity, matching
// the FIFO. The write is buffered; flushConn writes it out.
func (c *Client) sendFrame(cc *clientConn, payload []byte, ca *call) error {
	if err := cc.enqueue(ca); err != nil {
		return err
	}
	c.metrics.FramesSent.Inc()
	c.metrics.BytesOut.Add(int64(frameHeaderLen + len(payload)))
	cc.hdr = frameHeader(len(payload))
	if _, err := cc.bw.Write(cc.hdr[:]); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		return err
	}
	if _, err := cc.bw.Write(payload); err != nil {
		cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		return err
	}
	return nil
}

// AdjacentMany answers a batch of queries remotely, appending one result per
// pair to out (same contract as core.QueryEngine.AdjacentMany). The batch is
// split into pipelined frames of at most MaxBatch pairs; answers land in
// pair order. On any error the appended results must not be trusted.
func (c *Client) AdjacentMany(pairs [][2]int, out []bool) ([]bool, error) {
	return c.AdjacentManyTrace(pairs, out, nil)
}

// AdjacentManyTrace is AdjacentMany with end-to-end tracing when t is
// non-nil. When the server advertises the trace capability, every request
// frame carries t.ID (generated if zero), each hop's stage report is merged
// into t — the direct peer's own stages relabeled HopPeer, shard-labeled
// stages from a router passing through — and the client appends its own
// encode and flush stages plus the residual net stage (wall time minus
// everything else attributed), so on success the HopSelf+HopPeer stages in t
// sum exactly to the call's wall time. Against a server without the
// capability the batch is sent untraced and t records the client-side stages
// only.
func (c *Client) AdjacentManyTrace(pairs [][2]int, out []bool, t *obs.SpanTally) ([]bool, error) {
	start := len(out)
	out = grow(out, len(pairs))
	if err := c.many(adjPlane, pairs, answers{adj: out[start:]}, t); err != nil {
		return out[:start], err
	}
	return out, nil
}

// Adjacent answers a single query remotely. For throughput, prefer
// AdjacentMany — one frame per call pays the whole round trip for one pair.
func (c *Client) Adjacent(u, v int) (bool, error) {
	var res [1]bool
	if _, err := c.AdjacentMany([][2]int{{u, v}}, res[:0]); err != nil {
		return false, err
	}
	return res[0], nil
}

// DistMany answers a batch of distance queries remotely, appending one hop
// distance per pair to out (same contract as core.DistEngine.DistMany:
// graph.Unreachable for unreachable or beyond-bound pairs). Batches split,
// pipeline and recover exactly as AdjacentMany's do. Distances of 255 or more
// are indistinguishable from unreachable on the wire; see the package doc.
func (c *Client) DistMany(pairs [][2]int, out []int) ([]int, error) {
	return c.DistManyTrace(pairs, out, nil)
}

// DistManyTrace is DistMany with end-to-end tracing when t is non-nil; same
// contract as AdjacentManyTrace.
func (c *Client) DistManyTrace(pairs [][2]int, out []int, t *obs.SpanTally) ([]int, error) {
	start := len(out)
	out = grow(out, len(pairs))
	if err := c.many(distPlane, pairs, answers{dist: out[start:]}, t); err != nil {
		return out[:start], err
	}
	return out, nil
}

// Dist answers a single distance query remotely (graph.Unreachable for
// unreachable or beyond-bound pairs). For throughput, prefer DistMany.
func (c *Client) Dist(u, v int) (int, error) {
	var res [1]int
	if _, err := c.DistMany([][2]int{{u, v}}, res[:0]); err != nil {
		return 0, err
	}
	return res[0], nil
}

// many is the one send/await path under every pair-batch entry point: it
// splits pairs into frames of at most MaxBatch on plane pl, writes them all
// before reading any response, and waits for the answers to land in dest
// (len(pairs) answers of pl's shape) in pair order. A non-nil t makes it the
// traced call: frames carry t.ID, and the encode loop and the flush are
// timed; with a nil t the path takes no timestamps at all.
func (c *Client) many(pl *plane, pairs [][2]int, dest answers, t *obs.SpanTally) error {
	if len(pairs) == 0 {
		return nil
	}
	return c.await(c.send(pl, pairs, dest, t, true))
}

// send is the send half of many: it encodes pairs as request frames into the
// connection's write buffer and returns the receipt for await. A caller with
// more to send first (a router connection beginning several frames) passes
// flush = false and must call Client.flush before it waits on anything.
func (c *Client) send(pl *plane, pairs [][2]int, dest answers, t *obs.SpanTally, flush bool) *sent {
	b := sentPool.Get().(*sent)
	b.t = t
	if t != nil {
		if t.ID == 0 {
			t.ID = obs.NewTraceID()
		}
		b.start = time.Now()
		b.peerBefore = t.SumHop(obs.HopPeer)
	}
	maxBatch := c.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}

	c.mu.Lock()
	cc, err := c.ensureConn()
	for off := 0; err == nil && off < len(pairs); off += maxBatch {
		chunk := pairs[off:min(off+maxBatch, len(pairs))]
		var encStart time.Time
		if t != nil {
			encStart = time.Now()
		}
		ca := getCall()
		ca.ans = dest.slice(off, off+len(chunk))
		if t != nil {
			c.req = appendPairsReqTrace(c.req[:0], pl.op, t.ID, chunk)
			ca.tr = t
		} else {
			c.req = appendPairsReq(c.req[:0], pl.op, chunk)
		}
		if err = c.sendFrame(cc, c.req, ca); err == nil {
			b.calls = append(b.calls, ca)
		} else {
			// The connection is dead; the frames already enqueued still get
			// their verdicts (from the reader or from fail) in await.
			putCall(ca)
		}
		if t != nil {
			b.encodeNs += int64(time.Since(encStart))
		}
	}
	if flush && err == nil {
		var flushStart time.Time
		if t != nil {
			flushStart = time.Now()
		}
		c.flushConn()
		if t != nil {
			b.flushNs = int64(time.Since(flushStart))
		}
	}
	b.err = err
	c.mu.Unlock()
	return b
}

// flushConn writes out the buffered request frames; callers hold c.mu. A
// failure kills the connection, delivering it to every outstanding call.
func (c *Client) flushConn() {
	if c.cc == nil || c.cc.bw.Buffered() == 0 {
		return
	}
	c.metrics.Flushes.Inc()
	if err := c.cc.bw.Flush(); err != nil {
		c.cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
	}
}

// flush writes out what unflushed sends left buffered.
func (c *Client) flush() {
	c.mu.Lock()
	c.flushConn()
	c.mu.Unlock()
}

// await is the await half of many: it collects every call's verdict (the
// first failure wins, a send-side one before any), closes a traced batch's
// client stages, and recycles the calls and the receipt.
func (c *Client) await(b *sent) error {
	err := b.err
	for _, ca := range b.calls {
		if cerr := <-ca.done; cerr != nil && err == nil {
			err = cerr
		}
		putCall(ca)
	}
	if err == nil && b.t != nil {
		c.recordCallStages(b.t, b.start, b.encodeNs, b.flushNs, b.peerBefore)
	}
	*b = sent{calls: b.calls[:0]}
	sentPool.Put(b)
	return err
}

// recordCallStages appends the client-side stages of a completed traced
// call: encode, flush, and the residual net — the call's wall time minus
// encode, flush and the direct peer's self-reported stages. Shard-labeled
// stages nest inside the peer's own upstream stage, so they are excluded
// from the residual; by construction the HopSelf and HopPeer entries then
// sum exactly to the wall time, which is what makes end-to-end attribution
// checkable ("stages cover X% of e2e") rather than approximate.
func (c *Client) recordCallStages(t *obs.SpanTally, start time.Time, encodeNs, flushNs, peerBefore int64) {
	totalNs := int64(time.Since(start))
	t.Add(obs.StageEncode, obs.HopSelf, encodeNs)
	t.Add(obs.StageFlush, obs.HopSelf, flushNs)
	// Pipelined chunks can overlap peer stage time with wall time; attribute
	// nothing to the wire rather than a negative duration.
	net := max(totalNs-encodeNs-flushNs-(t.SumHop(obs.HopPeer)-peerBefore), 0)
	t.Add(obs.StageNet, obs.HopSelf, net)
}

// Info returns the number of vertices the server's engine answers for.
func (c *Client) Info() (n int, err error) {
	ca := getCall()
	ca.infoN = &n
	err = c.small(opInfo, ca)
	return n, err
}

// ShardInfo describes the slice of the labeling a server holds, as reported
// by the shard-info handshake: the vertex count, the shard map (the trivial
// 1-shard map for an unsharded server), the fat count K (vertex v is fat
// exactly when its identifier is below K, which the server's engine build
// enforced: its slab's fat labels are ranks 0..K-1, each carrying its rank as
// identifier) and the permutation block of the identifiers, as bytes
// (core.AppendPermutation: rank r is the vertex whose identifier is r; the
// block of the store the server was opened over, byte for byte; empty, with
// K = 0, from a server that holds no adjacency labels) — everything a router
// needs to place queries. The block is not decoded here: a router decodes its
// first upstream's once (decodeOrder) and holds every other to its bytes.
type ShardInfo struct {
	N      int
	Map    core.ShardMap
	K      int
	IDBits []byte
}

// decodeOrder decodes the handshake's permutation block into the rank→vertex
// order (nil when there is no block): the one decode a router makes, of its
// first upstream's block. The block must decode over N vertices
// (core.DecodePermutation) and end the body. A body from a server that still
// sends the ⌈log₂ n⌉-bit identifier block after k is refused here: it does
// not decode as a permutation block.
func (si *ShardInfo) decodeOrder() ([]int32, error) {
	if len(si.IDBits) == 0 {
		return nil, nil
	}
	order, size, err := core.DecodePermutation(si.IDBits, si.N)
	if err != nil {
		return nil, fmt.Errorf("shard-info %v", err)
	}
	if size != len(si.IDBits) {
		return nil, fmt.Errorf("%d shard-info bytes after the permutation block", len(si.IDBits)-size)
	}
	return order, nil
}

// ShardInfo performs the shard-info handshake.
func (c *Client) ShardInfo() (*ShardInfo, error) {
	si := new(ShardInfo)
	ca := getCall()
	ca.shard = si
	if err := c.small(opShardInfo, ca); err != nil {
		return nil, err
	}
	return si, nil
}

// small performs a one-byte request (info, shard-info) whose response fills
// ca: write the frame, flush, wait for the verdict, recycle the call.
func (c *Client) small(op byte, ca *call) error {
	defer putCall(ca)
	c.mu.Lock()
	cc, err := c.ensureConn()
	if err == nil {
		err = c.sendFrame(cc, []byte{op}, ca)
	}
	if err == nil {
		c.flushConn()
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return <-ca.done
}

// parseShardInfo parses a shard-info response body into si, keeping the
// permutation block as bytes. Errors are protocol corruption (they kill the
// connection); decoding the block (ShardInfo.decodeOrder) and validating the
// map and the block against sibling shards is the router's job. Every uvarint
// must be minimal, the shard map must be valid for n (the retired hash
// function is refused by name), k must not exceed n, and a body that goes on
// after k must declare a vertex count a frame can carry (handshakeFits,
// checked before anyone sizes a table). A body from a server that still sends
// the fat bitmap after the map is refused: its first bitmap byte reads as a
// fat count past n, or the block after it does not decode.
func parseShardInfo(si *ShardInfo, body []byte) error {
	var hdr [4]uint64 // n, shard count, shard index, then k after the function
	whole := len(body)
	read := func(i int, what string) error {
		v, k := binary.Uvarint(body)
		if k <= 0 || k > 1 && body[k-1] == 0 {
			return fmt.Errorf("%w: bad shard-info %s", ErrClosed, what)
		}
		hdr[i], body = v, body[k:]
		return nil
	}
	for i, what := range [...]string{"n", "count", "index"} {
		if err := read(i, what); err != nil {
			return err
		}
	}
	n := hdr[0]
	if n > 8*maxFramePayload {
		return fmt.Errorf("%w: shard-info for %d vertices cannot fit a frame", ErrClosed, n)
	}
	if len(body) == 0 {
		return fmt.Errorf("%w: truncated shard-info ownership function", ErrClosed)
	}
	// A count or index past MaxInt converts negative, which Validate refuses.
	m := core.ShardMap{Count: int(hdr[1]), Index: int(hdr[2]), Fn: core.ShardFn(body[0])}
	body = body[1:]
	if err := m.Validate(max(int(n), 1)); err != nil {
		return fmt.Errorf("%w: shard-info map: %v", ErrClosed, err)
	}
	if err := read(3, "fat count"); err != nil {
		return err
	}
	if k := hdr[3]; k > n {
		return fmt.Errorf("%w: shard-info fat count %d of %d vertices", ErrClosed, k, n)
	}
	if len(body) != 0 && !handshakeFits(1+whole-len(body), n) {
		return fmt.Errorf("%w: shard-info for %d vertices, past the handshake's vertex range", ErrClosed, n)
	}
	si.N, si.Map, si.K = int(n), m, int(hdr[3])
	si.IDBits = append(si.IDBits[:0], body...)
	return nil
}

// Pending returns the number of request frames written but not yet answered
// on the live connection — the pipelining depth, for orchestrators (the
// router's per-upstream in-flight gauge) and tests.
func (c *Client) Pending() int { return int(c.metrics.InFlight.Load()) }
