package adjserve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

// routerFuzzMaxPairs caps the pairs per downstream frame FuzzRouterUpstream
// sends; the liar's share of them is one upstream frame.
const routerFuzzMaxPairs = 200

// routerFuzzFleet is one fleet shape FuzzRouterUpstream routes over: the
// servers behind it (upstream i is servers[i]), the downstream op, the pairs
// and the oracle's answers to them. Upstream 0 is the liar.
type routerFuzzFleet struct {
	servers []*Server
	op      byte
	pairs   [][2]int
	want    answers
}

// routerFuzzFleets builds the golden fleets' two shapes over the same engines
// golden_test.go pins: a 3-shard adjacency partition and 2 distance replicas.
func routerFuzzFleets(t testing.TB) [2]routerFuzzFleet {
	full, shards := shardEngines(t, 400, 3, 7)
	dist := testDistEngines(t, 400, 3)["pll"]
	part := routerFuzzFleet{op: opQuery, pairs: goldenRing(full, routerFuzzMaxPairs)}
	for _, e := range shards {
		part.servers = append(part.servers, NewServer(e, 0))
	}
	part.want.adj = make([]bool, len(part.pairs))
	for i, p := range part.pairs {
		ok, err := full.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		part.want.adj[i] = ok
	}
	repl := routerFuzzFleet{op: opDist, pairs: randomPairs(400, routerFuzzMaxPairs, 3)}
	for range 2 {
		srv := NewServer(full, 0)
		srv.SetDistEngine(dist)
		repl.servers = append(repl.servers, srv)
	}
	repl.want.dist = make([]int, len(repl.pairs))
	for i, p := range repl.pairs {
		d, err := dist.Dist(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		repl.want.dist[i] = d
	}
	return [2]routerFuzzFleet{part, repl}
}

// routerFuzzReq is the downstream request FuzzRouterUpstream sends: the
// fleet's first count pairs, traced or not.
func routerFuzzReq(fl *routerFuzzFleet, count int, traced bool) []byte {
	if traced {
		return appendPairsReqTrace(nil, fl.op, goldenTraceID, fl.pairs[:count])
	}
	return appendPairsReq(nil, fl.op, fl.pairs[:count])
}

// servePeer is one upstream's end of a pipe: it answers every request frame
// through srv, except that a liar answers its first pair-batch frame with
// data, written as it is, and hangs up.
func servePeer(peer net.Conn, srv *Server, liar bool, data []byte) {
	defer peer.Close()
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(peer, hdr[:]); err != nil {
			return
		}
		req := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(peer, req); err != nil {
			return
		}
		if liar && req[0] != opShardInfo {
			peer.Write(data)
			return
		}
		if _, err := peer.Write(respFrames(goldenFrame(srv, req))); err != nil {
			return
		}
	}
}

// pipeRouter hands fl's servers to a Router over in-memory pipes, each
// upstream's peer run by servePeer, with upstream 0 lying with lie when lie
// is not nil. wait blocks until every peer has returned, which they do once
// the router is closed.
func pipeRouter(t testing.TB, fl *routerFuzzFleet, lie []byte) (r *Router, wait func()) {
	addrs := make([]string, len(fl.servers))
	byAddr := make(map[string]int, len(addrs))
	for i := range addrs {
		addrs[i] = fmt.Sprintf("upstream%d", i)
		byAddr[addrs[i]] = i
	}
	var peers sync.WaitGroup
	dial := func(addr string) (net.Conn, error) {
		i := byAddr[addr]
		client, peer := net.Pipe()
		peers.Add(1)
		go func() {
			defer peers.Done()
			servePeer(peer, fl.servers[i], i == 0 && lie != nil, lie)
		}()
		return client, nil
	}
	r, err := newRouter(addrs, 0, dial)
	if err != nil {
		t.Fatalf("handshake over honest peers: %v", err)
	}
	return r, peers.Wait
}

// FuzzRouterUpstream routes one downstream frame through a Router whose
// upstream 0 lies: every upstream dials one end of a net.Pipe whose peer
// answers the shard-info handshake and pair batches through a real server,
// but upstream 0 answers its pair batch with the fuzz bytes — a wrong count,
// a wrong plane's answers, a truncated trace block, a shed, an error, noise
// — and hangs up. The router must never panic, the frame must finish, every
// upstream client's Pending must be back at 0, and the router's answer must
// be an error or shed frame, or an OK frame whose every pair carries the
// answer of the upstream it was routed to: the oracle's for an honest
// upstream, the liar's frame's own for the liar — never another pair's.
// Seeded from the golden fleets' frames: a 3-shard adjacency partition and
// 2 distance replicas.
func FuzzRouterUpstream(f *testing.F) {
	fleets := routerFuzzFleets(f)
	// liarFrame is the honest answer upstream 0 would give to its share of
	// a frame: the seeds' starting point.
	liarFrame := func(shape uint8, count int, traced bool) []byte {
		fl := &fleets[shape]
		r, wait := pipeRouter(f, fl, nil)
		defer wait()
		defer r.Close()
		var mine [][2]int
		for _, p := range fl.pairs[:count] {
			if r.route(p[0], p[1]) == 0 {
				mine = append(mine, p)
			}
		}
		req := appendPairsReq(nil, fl.op, mine)
		if traced {
			req = appendPairsReqTrace(nil, fl.op, goldenTraceID, mine)
		}
		return respFrames(goldenFrame(fl.servers[0], req))
	}
	for shape := uint8(0); shape < 2; shape++ {
		other := fleets[1-shape].op
		for _, count := range []int{1, 31, 100, routerFuzzMaxPairs} {
			for _, traced := range []bool{false, true} {
				ok := liarFrame(shape, count, traced)
				f.Add(ok, shape, uint16(count-1), traced)
				f.Add(ok[:len(ok)-1], shape, uint16(count-1), traced) // truncated: the trace block, if any
				f.Add(ok[:len(ok)/2], shape, uint16(count-1), traced)
				f.Add(append(slices.Clone(ok), ok...), shape, uint16(count-1), traced) // answered twice
			}
			// Another count's answers, and the other plane's.
			f.Add(liarFrame(shape, count%routerFuzzMaxPairs+1, false), shape, uint16(count-1), false)
			wrongOp := respFrames(goldenFrame(fleets[1-shape].servers[0], appendPairsReq(nil, other, fleets[shape].pairs[:count])))
			f.Add(wrongOp, shape, uint16(count-1), false)
		}
		f.Add(respFrames([]byte{statusShed}), shape, uint16(99), false)
		f.Add(respFrames(errFrame("truncated: 0 field bytes for 2 pairs of 2 bits")), shape, uint16(99), false)
		f.Add(respFrames(errFrame("unknown op 5")), shape, uint16(99), false) // an upstream older than packed pair frames
		f.Add(respFrames([]byte{0x7f}), shape, uint16(99), false)
		f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, shape, uint16(99), false)
	}

	f.Fuzz(func(t *testing.T, data []byte, shape uint8, count uint16, traced bool) {
		fl := &fleets[shape%2]
		pairs := 1 + int(count)%routerFuzzMaxPairs
		r, wait := pipeRouter(t, fl, data)
		// Closing the router's clients unblocks every peer still reading.
		defer wait()
		defer r.Close()
		for _, lane := range r.lanes {
			for _, c := range lane {
				c.maxDialAttempts = 1
			}
		}

		b := r.openConn().(*routerConn)
		done := make(chan []byte, 1)
		go func() {
			b.begin(0, routerFuzzReq(fl, pairs, traced), time.Now(), 0, 0)
			b.flush()
			done <- slices.Clone(b.finish(0))
		}()
		var resp []byte
		select {
		case resp = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("frame still outstanding 10 s after the liar wrote %d bytes", len(data))
		}
		b.close()
		for l, lane := range r.lanes {
			for s, c := range lane {
				if p := c.Pending(); p != 0 {
					t.Fatalf("lane %d upstream %d: Pending() = %d after the frame finished", l, s, p)
				}
			}
		}
		if len(resp) == 0 {
			t.Fatal("empty response")
		}
		switch resp[0] &^ opTraceFlag {
		case statusErr, statusShed:
			return
		case statusOK:
		default:
			t.Fatalf("response status %d", resp[0])
		}

		// An OK frame: every upstream answered, the liar with a frame that
		// leads its data and says OK. Each pair must carry its upstream's
		// answer.
		got := &call{}
		got.ans = got.ans.sized(fl.op == opDist, pairs)
		if err := deliverAnswers(got, resp[1:], resp[0]&opTraceFlag != 0); err != nil {
			t.Fatalf("router's OK frame does not decode: %v", err)
		}
		var liarPos []int
		for i, p := range fl.pairs[:pairs] {
			if r.route(p[0], p[1]) == 0 {
				liarPos = append(liarPos, i)
			}
		}
		lied := &call{}
		lied.ans = lied.ans.sized(fl.op == opDist, len(liarPos))
		if len(liarPos) > 0 {
			if len(data) < frameHeaderLen {
				t.Fatalf("OK frame over %d liar pairs, but the liar wrote %d bytes", len(liarPos), len(data))
			}
			plen := int(binary.LittleEndian.Uint32(data))
			if plen < 1 || len(data) < frameHeaderLen+plen {
				t.Fatalf("OK frame over %d liar pairs, but the liar's first frame is cut short", len(liarPos))
			}
			payload := data[frameHeaderLen : frameHeaderLen+plen]
			if payload[0]&^opTraceFlag != statusOK {
				t.Fatalf("OK frame, yet the liar answered with status %d", payload[0])
			}
			if err := deliverAnswers(lied, payload[1:], payload[0]&opTraceFlag != 0); err != nil {
				t.Fatalf("the router accepted the liar's frame, deliverAnswers refuses it: %v", err)
			}
		}
		j := 0
		for i := range pairs {
			want := fl.want.slice(i, i+1)
			if j < len(liarPos) && liarPos[j] == i {
				want = lied.ans.slice(j, j+1)
				j++
			}
			if g := got.ans.slice(i, i+1); !slices.Equal(g.adj, want.adj) || !slices.Equal(g.dist, want.dist) {
				t.Fatalf("pair %d %v: router answered %v%v, its upstream %v%v", i, fl.pairs[i], g.adj, g.dist, want.adj, want.dist)
			}
		}
	})
}
