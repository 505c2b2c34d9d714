package adjserve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// The router holds upstreamLanes clients per shard and binds each downstream
// connection to one lane. These tests check what that buys (two connections
// reach a shard on two sockets; one lane's stalled connection does not hold
// the other lane's frames) and what it must not cost (teardown still awaits
// every call on every lane and closes every client; a lane the shard refuses
// fails alone).

// allClientsClosed checks that no lane holds a connection to any shard.
func allClientsClosed(t *testing.T, r *Router) {
	t.Helper()
	for l, lane := range r.lanes {
		for s, c := range lane {
			c.mu.Lock()
			open := c.cc != nil
			c.mu.Unlock()
			if open {
				t.Errorf("lane %d still holds a connection to shard %d", l, s)
			}
		}
	}
}

// answersMatch calls pairs through c and compares with the unsharded engine.
func answersMatch(t *testing.T, c *Client, full *core.QueryEngine, pairs [][2]int) {
	t.Helper()
	got, err := c.AdjacentMany(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := full.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair (%d,%d) = %v, the unsharded engine says %v", p[0], p[1], got[i], want)
		}
	}
}

// holdLane1 also holds lane 1's connection to heldShard, re-takes the
// goroutine baseline with it dialled, and returns a release for both lanes.
func (f *pipelineFleet) holdLane1(t *testing.T, kill bool) (release func()) {
	t.Helper()
	release1 := holdUpstream(t, f.r.lanes[1][heldShard], kill)
	sm := f.srvs[heldShard].Metrics()
	waitFor(t, "the held shard to see lane 1", func() bool { return sm.ConnsActive.Load() == 2 })
	f.base = runtime.NumGoroutine()
	return func() { f.release(); release1() }
}

// beginOnBothLanes opens two downstream connections — the router's first two,
// so lanes 0 and 1 — with two frames each begun and waiting on heldShard.
func (f *pipelineFleet) beginOnBothLanes(t *testing.T, req []byte) (downs [2]net.Conn) {
	t.Helper()
	m := f.r.Metrics()
	for i := range downs {
		downs[i] = f.ln.dial(t)
		writeFrames(t, downs[i], req, req)
		// Begun before the next dial: connections take lanes in openConn order.
		waitFor(t, "the connection's frames to begin", func() bool { return m.BegunFrames.Load() == int64(2*i+2) })
		if got := f.r.lanes[i][heldShard].Pending(); got != 2 {
			t.Fatalf("lane %d has %d calls outstanding on the held shard, want 2", i, got)
		}
	}
	return downs
}

func TestRouterLanes(t *testing.T) {
	t.Run("connections take lanes round-robin", func(t *testing.T) {
		full, engines := shardEngines(t, 400, 3, 7)
		addrs, srvs := startShardFleet(t, engines)
		addr, r := startRouter(t, addrs, 0)
		if got := r.Lanes(); got != upstreamLanes {
			t.Fatalf("Lanes() = %d, want %d", got, upstreamLanes)
		}
		pairs := randomPairs(full.N(), 300, 5) // every shard gets a sub-batch
		// One connection more than there are lanes: the last shares lane 0.
		for k := 1; k <= upstreamLanes+1; k++ {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			answersMatch(t, c, full, pairs)
			for s, srv := range srvs {
				if got, want := srv.Metrics().ConnsActive.Load(), int64(min(k, upstreamLanes)); got != want {
					t.Errorf("after %d downstream connections shard %d has %d upstream connections, want %d", k, s, got, want)
				}
			}
		}
		for s := range srvs {
			if got := r.Metrics().Upstreams[s].Batches.Load(); got != upstreamLanes+1 {
				t.Errorf("shard %d: %d sub-batches over all lanes, want %d", s, got, upstreamLanes+1)
			}
		}
	})

	// Head-of-line isolation: lane 0's connection to the hot shard is stalled
	// with frames waiting on it, and a second downstream connection — lane 1,
	// its own socket to that shard — answers the same pairs meanwhile.
	t.Run("a stalled lane holds only its own frames", func(t *testing.T) {
		f := newPipelineFleet(t, false)
		slow, slowReq := f.owned(heldShard, 40)
		fast, fastReq := f.owned(0, 7)
		mixed := randomPairs(f.full.N(), 300, 5)
		mixedReq := appendPairsReq(nil, opQuery, mixed)
		frames := []struct {
			req, want []byte
		}{
			{slowReq, packBits(t, f.full, slow)},
			{fastReq, packBits(t, f.full, fast)},
			{mixedReq, packBits(t, f.full, mixed)},
		}
		m := f.r.Metrics()
		down0 := f.ln.dial(t)
		defer down0.Close()
		writeFrames(t, down0, slowReq, fastReq, mixedReq)
		waitFor(t, "lane 0's frames to begin", func() bool { return m.BegunFrames.Load() == 3 })

		down1 := f.ln.dial(t)
		defer down1.Close()
		for round := 0; round < 2; round++ {
			for i, fr := range frames {
				writeFrames(t, down1, fr.req)
				if got := readFrame(t, down1); !bytes.Equal(got, fr.want) {
					t.Errorf("lane 1 round %d response %d: frame %q, want %q", round, i, got, fr.want)
				}
			}
		}
		if got := f.srvs[heldShard].Metrics().ConnsActive.Load(); got != 2 {
			t.Errorf("the held shard has %d upstream connections, want 2 (one per lane in use)", got)
		}
		if got := m.BegunFrames.Load(); got != 3 {
			t.Errorf("BegunFrames = %d with lane 0 still held, want 3", got)
		}
		if got := f.r.lanes[0][heldShard].Pending(); got != 2 {
			t.Errorf("lane 0 has %d calls outstanding on the held shard, want 2", got)
		}
		f.release()
		for i, fr := range frames {
			if got := readFrame(t, down0); !bytes.Equal(got, fr.want) {
				t.Errorf("lane 0 response %d after the release: frame %q, want %q", i, got, fr.want)
			}
		}
		down0.Close()
		down1.Close()
		if err := f.r.Close(); err != nil {
			t.Errorf("Router.Close: %v", err)
		}
		f.settled(t, 0)
		allClientsClosed(t, f.r)
	})

	t.Run("router close with frames begun on two lanes", func(t *testing.T) {
		f := newPipelineFleet(t, false)
		release := f.holdLane1(t, false)
		pairs, req := f.owned(heldShard, 16)
		downs := f.beginOnBothLanes(t, req)
		closed := make(chan error, 1)
		go func() { closed <- f.r.Close() }()
		waitFor(t, "the drain to start", func() bool { return f.r.draining.Load() })
		release()
		for l, down := range downs {
			defer down.Close()
			for i, want := 0, packBits(t, f.full, pairs); i < 2; i++ {
				if got := readFrame(t, down); !bytes.Equal(got, want) {
					t.Errorf("lane %d response %d during the drain: frame %q, want %q", l, i, got, want)
				}
			}
			if _, err := down.Read(make([]byte, 1)); err == nil {
				t.Errorf("lane %d's connection still open after the drain", l)
			}
		}
		if err := <-closed; err != nil {
			t.Errorf("Router.Close: %v", err)
		}
		f.settled(t, 0)
		allClientsClosed(t, f.r)
		if got := f.r.Metrics().Upstreams[heldShard].Batches.Load(); got != 4 {
			t.Errorf("%d sub-batches awaited on the held shard, want 4", got)
		}
	})

	t.Run("shard dies with frames begun on two lanes", func(t *testing.T) {
		f := newPipelineFleet(t, true)
		release := f.holdLane1(t, true)
		victim, req := f.owned(heldShard, 16)
		downs := f.beginOnBothLanes(t, req)
		var redials [2]int64
		for l := range redials {
			redials[l] = f.r.lanes[l][heldShard].Metrics().Redials.Load()
		}
		release() // both held connections fail with their bursts in flight
		for l, down := range downs {
			defer down.Close()
			for i := 0; i < 2; i++ {
				if got := readFrame(t, down); got[0] != statusErr || !bytes.Contains(got, []byte(fmt.Sprintf("shard %d (", heldShard))) {
					t.Errorf("lane %d response %d: frame %q, want an error frame naming shard %d", l, i, got, heldShard)
				}
			}
			// Each lane redials the shard for its connection's next frame.
			writeFrames(t, down, req)
			if got, want := readFrame(t, down), packBits(t, f.full, victim); !bytes.Equal(got, want) {
				t.Errorf("lane %d after the redial: frame %q, want %q", l, got, want)
			}
			if got := f.r.lanes[l][heldShard].Metrics().Redials.Load() - redials[l]; got != 1 {
				t.Errorf("lane %d redialled the shard %d times, want 1", l, got)
			}
			down.Close()
		}
		if got := f.r.Metrics().Upstreams[heldShard].Errors.Load(); got != 4 {
			t.Errorf("%d failed sub-batches charged to the dead upstream, want 4", got)
		}
		f.settled(t, 0)
		if err := f.r.Close(); err != nil {
			t.Errorf("Router.Close: %v", err)
		}
		allClientsClosed(t, f.r)
	})

	// A shard with room for fewer upstream connections than the router has
	// lanes (plserve -max-conns below L) refuses the lazily dialled lane: that
	// lane's frames for the shard fail — a shed frame when the shard's refusal
	// reaches the call, else the usual error frame naming the shard — and are
	// redialled frame by frame, while its other shards and the other lane
	// keep answering.
	t.Run("a refused lane fails alone", func(t *testing.T) {
		full, engines := shardEngines(t, 400, 3, 7)
		addrs := make([]string, len(engines))
		srvs := make([]*Server, len(engines))
		for i, e := range engines {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(e, 0)
			if i == 0 {
				srv.SetMaxConns(1) // the handshake's connection, lane 0, and no other
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			addrs[i], srvs[i] = ln.Addr().String(), srv
		}
		addr, r := startRouter(t, addrs, 0)
		capped := thinPairsOwnedBy(full, 3, 0, 32)
		open := thinPairsOwnedBy(full, 3, 1, 32)
		var conns [2]*Client
		for l := range conns {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			answersMatch(t, c, full, open) // takes lane l
			conns[l] = c
		}
		const refusals = 3
		for i := 0; i < refusals; i++ {
			answersMatch(t, conns[0], full, capped)
			_, err := conns[1].AdjacentMany(capped, nil)
			var rerr *RemoteError
			if !errors.Is(err, ErrShed) && !(errors.As(err, &rerr) && strings.Contains(rerr.Msg, "shard 0 (32 pairs)")) {
				t.Fatalf("refused lane, frame %d: err = %v, want ErrShed or an error frame naming shard 0", i, err)
			}
			answersMatch(t, conns[1], full, open)
		}
		um := &r.Metrics().Upstreams[0]
		if got := um.Sheds.Load() + um.Errors.Load(); got != refusals {
			t.Errorf("%d failed sub-batches charged to the capped shard, want %d", got, refusals)
		}
		// One dial per frame at most: a refused lane is retried, not stormed.
		if got := r.lanes[1][0].Metrics().DialAttempts.Load(); got < 1 || got > refusals {
			t.Errorf("the refused lane dialled the shard %d times over %d frames", got, refusals)
		}
		if got := srvs[0].Metrics().ConnsShed.Load(); got < 1 {
			t.Error("the capped shard counted no refused connection")
		}
		if got := srvs[0].Metrics().ConnsActive.Load(); got != 1 {
			t.Errorf("the capped shard has %d connections, want the handshake's 1", got)
		}
	})
}
