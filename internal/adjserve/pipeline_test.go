package adjserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The router's connections are full-duplex: these tests hold one upstream's
// answers back so that frames pile up between begin and finish, then check
// what a client can see (request order, bytes ≡ the unsharded engine) and
// what teardown must leave behind (no goroutine, no queued frame, no
// outstanding upstream call).

// heldConn is an upstream connection whose responses stay unread until
// release is closed; with kill set the first read after that fails instead,
// as if the shard had died with the burst in flight.
type heldConn struct {
	net.Conn
	release <-chan struct{}
	kill    bool
}

func (h *heldConn) Read(p []byte) (int, error) {
	<-h.release
	if h.kill {
		return 0, errors.New("upstream killed")
	}
	return h.Conn.Read(p)
}

// holdUpstream reconnects upstream client c (one lane's client for one shard)
// through a heldConn (later redials are plain) and returns the idempotent
// release.
func holdUpstream(t *testing.T, c *Client, kill bool) (release func()) {
	t.Helper()
	held := make(chan struct{})
	var dials atomic.Int32
	c.DialFunc = func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil || dials.Add(1) > 1 {
			return nc, err
		}
		return &heldConn{Conn: nc, release: held, kill: kill}, nil
	}
	c.Close() // drop the handshake's connection (lane 0; the others have none yet)
	c.mu.Lock()
	_, err := c.ensureConn()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(held) }) }
	t.Cleanup(release)
	return release
}

// pipeListener serves in-memory connections, so a peer that goes away fails
// the other side's very next write — no kernel buffer, no RST race.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("router never accepted the connection")
	}
	return client
}

// writeFrames sends the request payloads as one burst.
func writeFrames(t *testing.T, c net.Conn, reqs ...[]byte) {
	t.Helper()
	var burst []byte
	for _, req := range reqs {
		hdr := frameHeader(len(req))
		burst = append(append(burst, hdr[:]...), req...)
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
}

func readFrame(t *testing.T, c net.Conn) []byte {
	t.Helper()
	var hdr [frameHeaderLen]byte
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("reading a response header: %v", err)
	}
	resp := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(c, resp); err != nil {
		t.Fatalf("reading a %d-byte response: %v", len(resp), err)
	}
	return resp
}

// waitFor polls cond, which names an event another goroutine brings about.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pipelineFleet is a 3-shard partition behind a router on a pipeListener,
// with shard heldShard answering lane 0 — the lane of the router's first
// downstream connection — through a heldConn.
type pipelineFleet struct {
	full    *core.QueryEngine
	srvs    []*Server
	r       *Router
	ln      *pipeListener
	release func()
	base    int // goroutines before any downstream connection
}

const heldShard = 2

func newPipelineFleet(t *testing.T, kill bool) *pipelineFleet {
	t.Helper()
	full, engines := shardEngines(t, 400, 3, 7)
	addrs, srvs := startShardFleet(t, engines)
	r, err := NewRouter(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &pipelineFleet{full: full, srvs: srvs, r: r, ln: newPipeListener()}
	go r.Serve(f.ln)
	t.Cleanup(func() { r.Close() })
	f.release = holdUpstream(t, r.lanes[0][heldShard], kill)
	// The baseline is taken once the shard has swapped the handshake's
	// connection for the held one, goroutines included.
	sm := srvs[heldShard].Metrics()
	waitFor(t, "the held shard to see the reconnect", func() bool {
		return sm.ConnsTotal.Load() == 2 && sm.ConnsActive.Load() == 1
	})
	f.base = runtime.NumGoroutine()
	return f
}

// owned returns count thin pairs only shard s can answer, as a request.
func (f *pipelineFleet) owned(s, count int) ([][2]int, []byte) {
	pairs := thinPairsOwnedBy(f.full, 3, s, count)
	return pairs, appendPairsReq(nil, opQuery, pairs)
}

// settled checks what every teardown must leave: no frame begun or queued,
// no upstream call outstanding, the connection's goroutines gone.
func (f *pipelineFleet) settled(t *testing.T, writeErrors int64) {
	t.Helper()
	m := f.r.Metrics()
	waitFor(t, "the connection to close", func() bool { return m.ConnsActive.Load() == 0 })
	if got := m.BegunFrames.Load(); got != 0 {
		t.Errorf("BegunFrames = %d after teardown, want 0", got)
	}
	if got := m.QueuedFrames.Load(); got != 0 {
		t.Errorf("QueuedFrames = %d after teardown, want 0", got)
	}
	if got := m.WriteErrors.Load(); got != writeErrors {
		t.Errorf("WriteErrors = %d, want %d", got, writeErrors)
	}
	for l, lane := range f.r.lanes {
		for s, c := range lane {
			if got := c.Pending(); got != 0 {
				t.Errorf("lane %d upstream %d has %d calls outstanding after teardown", l, s, got)
			}
		}
	}
	waitFor(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= f.base })
}

// TestRouterPipelineOrder: with one shard held, the sub-batches of later
// frames all return before frame 0's, and still every response — pair
// batches of several sizes, opInfo, a malformed frame, an out-of-range pair,
// an over-limit batch — arrives in request order and ≡ the unsharded engine.
func TestRouterPipelineOrder(t *testing.T) {
	f := newPipelineFleet(t, false)
	slow, _ := f.owned(heldShard, 40)
	fast0, fast0Req := f.owned(0, 7)
	fast1, fast1Req := f.owned(1, 64)
	first := append(append(append([][2]int(nil), fast0[:5]...), fast1[:5]...), slow...)
	mixed := randomPairs(f.full.N(), 300, 5)
	outOfRange := append(append([][2]int(nil), fast0[:3]...), [2]int{5, 70000})
	frames := []struct {
		name      string
		req, want []byte
	}{
		{"needs the held shard", appendPairsReq(nil, opQuery, first), packBits(t, f.full, first)},
		{"shard 0 only", fast0Req, packBits(t, f.full, fast0)},
		{"opInfo", []byte{opInfo}, appendInfo(nil, f.full.N())},
		{"shard 1 only", fast1Req, packBits(t, f.full, fast1)},
		{"malformed", appendPairsReq(nil, opQuery, [][2]int{{1, 2}, {3, 0}})[:3], errFrame("truncated: 0 field bytes for 2 pairs of 2 bits")},
		{"out of range", appendPairsReq(nil, opQuery, outOfRange), errFrame("pair 3 (5,70000): vertex out of range [0,400)")},
		{"over limit", binary.AppendUvarint([]byte{opQuery}, DefaultMaxBatch+1),
			errFrame(fmt.Sprintf("batch of %d pairs exceeds limit %d", DefaultMaxBatch+1, DefaultMaxBatch))},
		{"all shards", appendPairsReq(nil, opQuery, mixed), packBits(t, f.full, mixed)},
		{"one held pair", appendPairsReq(nil, opQuery, slow[:1]), packBits(t, f.full, slow[:1])},
		{"empty batch", appendPairsReq(nil, opQuery, nil), []byte{statusOK, 0}},
	}
	var sent [2]int64
	for s := range sent {
		sent[s] = f.r.lanes[0][s].Metrics().FramesSent.Load()
	}
	down := f.ln.dial(t)
	defer down.Close()
	reqs := make([][]byte, len(frames))
	for i := range frames {
		reqs[i] = frames[i].req
	}
	writeFrames(t, down, reqs...) // returns once the router's reader has buffered the burst

	// The pipeline fills behind frame 0, and the fast shards have answered
	// both frame 0's and a later frame's sub-batch while shard 2 sits on its
	// own: upstream answers are out of request order.
	m := f.r.Metrics()
	waitFor(t, "the pipeline to fill", func() bool { return m.BegunFrames.Load() == pipelineDepth })
	for s := range sent {
		c := f.r.lanes[0][s]
		waitFor(t, fmt.Sprintf("shard %d to answer two sub-batches", s), func() bool {
			return c.Metrics().FramesSent.Load() >= sent[s]+2 && c.Pending() == 0
		})
	}
	if got := f.r.lanes[0][heldShard].Pending(); got == 0 {
		t.Fatal("the held shard has nothing outstanding")
	}
	if got := m.Frames.Load(); got != 0 {
		t.Fatalf("%d frames answered downstream while frame 0 is still upstream", got)
	}
	f.release()
	for i := range frames {
		if got := readFrame(t, down); !bytes.Equal(got, frames[i].want) {
			t.Errorf("response %d (%s): frame %q, want %q", i, frames[i].name, got, frames[i].want)
		}
	}
	down.Close()
	f.settled(t, 0)
}

// TestRouterPipelineTeardown: a connection that goes away with frames between
// begin and finish — the peer disappears, the router closes, an upstream dies
// — still finishes every one of them.
func TestRouterPipelineTeardown(t *testing.T) {
	t.Run("peer gone", func(t *testing.T) {
		f := newPipelineFleet(t, false)
		_, req := f.owned(heldShard, 16)
		down := f.ln.dial(t)
		writeFrames(t, down, req, req, req)
		m := f.r.Metrics()
		waitFor(t, "three frames begun", func() bool { return m.BegunFrames.Load() == 3 })
		down.Close()
		f.release()
		// The dead peer is counted once, however many writes it failed.
		f.settled(t, 1)
		if got := m.Upstreams[heldShard].Batches.Load(); got != 3 {
			t.Errorf("%d sub-batches awaited on the held shard, want 3", got)
		}
	})

	t.Run("router close", func(t *testing.T) {
		f := newPipelineFleet(t, false)
		pairs, req := f.owned(heldShard, 16)
		down := f.ln.dial(t)
		defer down.Close()
		writeFrames(t, down, req, req, req)
		m := f.r.Metrics()
		waitFor(t, "three frames begun", func() bool { return m.BegunFrames.Load() == 3 })
		closed := make(chan error, 1)
		go func() { closed <- f.r.Close() }()
		waitFor(t, "the drain to start", func() bool { return f.r.draining.Load() })
		f.release()
		// Draining finishes what was begun: three answers, then the close.
		for i, want := 0, packBits(t, f.full, pairs); i < 3; i++ {
			if got := readFrame(t, down); !bytes.Equal(got, want) {
				t.Errorf("response %d during the drain: frame %q, want %q", i, got, want)
			}
		}
		if _, err := down.Read(make([]byte, 1)); err == nil {
			t.Error("connection still open after the drain")
		}
		if err := <-closed; err != nil {
			t.Errorf("Router.Close: %v", err)
		}
		f.settled(t, 0)
	})

	t.Run("upstream dies", func(t *testing.T) {
		f := newPipelineFleet(t, true)
		victim, victimReq := f.owned(heldShard, 16)
		live, liveReq := f.owned(0, 16)
		mixed := append(append([][2]int(nil), live[:4]...), victim[:4]...)
		down := f.ln.dial(t)
		defer down.Close()
		writeFrames(t, down, victimReq, liveReq, appendPairsReq(nil, opQuery, mixed))
		m := f.r.Metrics()
		waitFor(t, "three frames begun", func() bool { return m.BegunFrames.Load() == 3 })
		f.release() // the held connection fails with the burst in flight
		for i, wantErr := range []bool{true, false, true} {
			got := readFrame(t, down)
			switch {
			case wantErr && (got[0] != statusErr || !bytes.Contains(got, []byte(fmt.Sprintf("shard %d (", heldShard)))):
				t.Errorf("response %d: frame %q, want an error frame naming shard %d", i, got, heldShard)
			case !wantErr && !bytes.Equal(got, packBits(t, f.full, live)):
				t.Errorf("response %d: frame %q, want the live shard's answers", i, got)
			}
		}
		// The same connection redials the shard for the next frame.
		writeFrames(t, down, victimReq)
		if got, want := readFrame(t, down), packBits(t, f.full, victim); !bytes.Equal(got, want) {
			t.Errorf("after the redial: frame %q, want %q", got, want)
		}
		if got := m.Upstreams[heldShard].Errors.Load(); got != 2 {
			t.Errorf("%d failed sub-batches charged to the dead upstream, want 2", got)
		}
		down.Close()
		f.settled(t, 0)
	})
}
