package adjserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// The shard-info handshake since it carries the identifier block: megabytes at
// serving scale, so it is built once and kept out of pooled scratch, bounded by
// the frame limit with an error that names it, and — being bytes from a socket
// that decide where every pair goes — parsed strictly and fuzzed.

// fakeUpstream answers every frame on every connection with resp.
func fakeUpstream(t *testing.T, resp []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := frameHeader(len(resp))
	frame := append(out[:], resp...) // built once: the fake allocates nothing per answer
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var hdr [frameHeaderLen]byte
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, c, int64(binary.LittleEndian.Uint32(hdr[:]))); err != nil {
						return
					}
					if _, err := c.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// shardInfoOf is the handshake response of a server over eng under the real
// frame limit, as a fresh copy a test may edit.
func shardInfoOf(eng *core.QueryEngine) []byte {
	return bytes.Clone(buildShardInfo(eng, eng.N(), maxFramePayload))
}

// TestShardInfoOffPooledPath: a handshake leaves every pooled or long-lived
// buffer at the size it found it — the server's per-connection scratch, a
// router connection's slot, the client reader's payload buffer — and every
// connection is written the same block.
func TestShardInfoOffPooledPath(t *testing.T) {
	eng := testEngine(t, 4000, 3)
	srv := NewServer(eng, 0)
	steady := appendPairsReq(nil, opQuery, randomPairs(eng.N(), 256, 1))
	var blocks [2][]byte
	for i := range blocks {
		bufs := srv.openConn().(*connBuffers)
		bufs.answer(bytes.Clone(steady), time.Now(), 0, 0)
		before := cap(bufs.resp)
		blocks[i] = bufs.answer([]byte{opShardInfo}, time.Now(), 0, 0)
		if len(blocks[i]) < bitstr.IDBlockLen(eng.N()) || blocks[i][0] != statusOK {
			t.Fatalf("shard-info response of %d bytes, status %d", len(blocks[i]), blocks[i][0])
		}
		if resp := bufs.answer(bytes.Clone(steady), time.Now(), 0, 0); resp[0] != statusOK {
			t.Fatalf("query after the handshake: status %d", resp[0])
		}
		if after := cap(bufs.resp); after != before {
			t.Fatalf("connection scratch grew from %d to %d bytes across a %d-byte handshake", before, after, len(blocks[i]))
		}
		bufs.close()
	}
	if &blocks[0][0] != &blocks[1][0] {
		t.Fatal("two connections were answered from two shard-info blocks, want the server's one")
	}

	addr, _, _ := startServer(t, eng, 0)
	raddr, r := startRouter(t, []string{addr}, 0)
	rc := r.openConn().(*routerConn)
	rc.begin(0, []byte{opShardInfo}, time.Now(), 0, 0)
	resp := rc.finish(0)
	if !bytes.Equal(resp, blocks[0]) { // an unsharded server's map is the trivial one a router reports
		t.Fatal("router re-serves a different shard-info block than its upstream's")
	}
	if cap(rc.slots[0].resp) != 0 {
		t.Fatalf("router slot scratch holds %d bytes after a handshake", cap(rc.slots[0].resp))
	}
	rc.close()

	// What a router fronting the router would read arrives whole.
	c, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	si, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(si.IDBits, eng.AppendIDBits(nil)) {
		t.Fatal("identifier block changed on its way through a router")
	}
}

// TestClientDropsHandshakeReadBuffer: a response past maxReadScratch is
// delivered and its read buffer released while the connection lives on — the
// live heap is back where it was once the caller lets go of the ShardInfo.
// The same all-zero identifier block is what admit must refuse.
func TestClientDropsHandshakeReadBuffer(t *testing.T) {
	const n = 1 << 20 // 20-bit identifiers: 2.5 MB
	body := appendShardInfo(nil, n, trivialShardMap, 0)
	ids := make([]byte, bitstr.IDBlockLen(n)) // every identifier 0: parses, no permutation
	addr := fakeUpstream(t, append(body, ids...))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	si, err := c.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(si.IDBits) != len(ids) || len(si.IDBits) < maxReadScratch {
		t.Fatalf("identifier block of %d bytes, want %d (above the %d-byte scratch cap)", len(si.IDBits), len(ids), maxReadScratch)
	}
	if !raceEnabled { // the race runtime's shadow heap moves HeapAlloc by megabytes
		kept := int64(liveHeap()) - int64(before) - int64(len(si.IDBits))
		if kept > maxReadScratch {
			t.Fatalf("%d bytes stayed live on the connection after a %d-byte handshake", kept, len(body)+len(ids))
		}
	}
	if err := checkIDs(si); err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Fatalf("all-zero identifier block: err = %v, want a refusal naming the permutation", err)
	}
	if _, err := NewRouter([]string{addr}, 0); err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Fatalf("router over an all-zero identifier block: err = %v, want a handshake refusal naming the permutation", err)
	}
}

// TestShardInfoFrameLimit: a handshake that would not fit a frame is refused
// by the server with an error frame naming n and the cap, and the router
// reports it as the handshake failure it is.
func TestShardInfoFrameLimit(t *testing.T) {
	eng := testEngine(t, 500, 7)
	whole := shardInfoOf(eng)
	if got := buildShardInfo(eng, eng.N(), len(whole)); !bytes.Equal(got, whole) {
		t.Fatal("a limit equal to the response size refused it")
	}
	refused := buildShardInfo(eng, eng.N(), len(whole)-1)
	want := errFrame(fmt.Sprintf("shard-info for 500 vertices is %d bytes, over the %d-byte frame limit", len(whole), len(whole)-1))
	if !bytes.Equal(refused, want) {
		t.Fatalf("over-limit handshake: frame %q, want %q", refused, want)
	}
	_, err := NewRouter([]string{fakeUpstream(t, refused)}, 0)
	if err == nil || !strings.Contains(err.Error(), "handshake") || !strings.Contains(err.Error(), "over the") {
		t.Fatalf("router over a server that refuses the handshake: err = %v, want the server's refusal as a handshake failure", err)
	}
	// The largest n the real limit admits is the documented one.
	fits := func(n int) bool {
		return len(appendShardInfo(nil, n, trivialShardMap, n))+bitstr.IDBlockLen(n) <= maxFramePayload
	}
	if !fits(5_830_000) || fits(5_840_000) {
		t.Fatal("protocol.go documents the handshake limit as n ≈ 5.83 M; the arithmetic moved")
	}
}

// TestRouterNeedsIdentifierBlock: a distance-only server reports k = 0 and no
// identifier block, which a replica fleet admits; a partition shard without
// one is refused. (An engine whose labels break the rule k stands for is
// refused at build: core's TestFatCount.)
func TestRouterNeedsIdentifierBlock(t *testing.T) {
	dist := testDistEngines(t, 200, 5)["pll"]
	daddr, _ := startDistServer(t, dist, 0)
	dc, err := Dial(daddr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	si, err := dc.ShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(si.IDBits) != 0 || si.K != 0 {
		t.Fatalf("distance-only handshake: k = %d, %d identifier bytes; want 0 and none", si.K, len(si.IDBits))
	}
	if r, err := NewRouter([]string{daddr, daddr}, 0); err != nil {
		t.Fatalf("replica fleet of distance-only servers: %v", err)
	} else {
		r.Close()
	}

	_, engines := shardEngines(t, 300, 2, 5)
	addrs, _ := startShardFleet(t, engines)
	block := shardInfoOf(engines[0])
	stripped := block[:len(block)-bitstr.IDBlockLen(300)]
	if _, err := NewRouter([]string{fakeUpstream(t, stripped), addrs[1]}, 0); err == nil || !strings.Contains(err.Error(), "no identifier block") {
		t.Fatalf("partition shard without an identifier block: err = %v", err)
	}
	if r, err := NewRouter([]string{fakeUpstream(t, block), addrs[1]}, 0); err != nil {
		t.Fatalf("the unedited block behind the same fake: %v", err)
	} else {
		r.Close()
	}
}

// FuzzParseShardInfo: any body either fails to parse or yields a ShardInfo
// that re-encodes to exactly the bytes parsed, with k at most n, every
// identifier below n and every accessor in bounds — and checkIDs, which admit
// runs on it, returns without panicking. Seeded from the golden shard-info
// frames and each way a body is refused.
func FuzzParseShardInfo(f *testing.F) {
	for _, frame := range goldenShardInfoFrames(f) {
		f.Add(frame[1:])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{0x80, 0x00, 1, 0, 0}) // n = 0 spelled in two bytes
	whole := goldenShardInfoFrames(f)[0][1:]
	hdr, ids := whole[:4], whole[5:] // n, count, index, function | k | identifiers
	hash := bytes.Clone(whole)
	hash[3] = 1
	for _, r := range []struct {
		what, err string
		body      []byte
	}{
		{"k > n", "fat count 41", append(append(bytes.Clone(hdr), 41), ids...)},
		{"k in two bytes", "bad shard-info fat count", append(append(bytes.Clone(hdr), 0x82, 0x00), ids...)},
		{"a byte after the block", "identifier block or none", append(bytes.Clone(whole), 0)},
		{"the retired body, a fat bitmap before the block", "fat count 72 of 40", append(append(bytes.Clone(hdr), 0x48, 0, 0, 0, 0), ids...)},
		{"the retired hash function", "re-run pllabel -shards", hash},
	} {
		var si ShardInfo
		if err := parseShardInfo(&si, r.body); err == nil || !strings.Contains(err.Error(), r.err) {
			f.Fatalf("%s: err = %v, want a refusal naming %q", r.what, err, r.err)
		}
		f.Add(r.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var si ShardInfo
		if err := parseShardInfo(&si, body); err != nil {
			return
		}
		again := append(appendShardInfo(nil, si.N, si.Map, si.K)[1:], si.IDBits...)
		if !bytes.Equal(again, body) {
			t.Fatalf("parsed %x, re-encoded %x", body, again)
		}
		if err := si.Map.Validate(max(si.N, 1)); err != nil {
			t.Fatalf("accepted shard map %+v over %d vertices: %v", si.Map, si.N, err)
		}
		if si.K > si.N {
			t.Fatalf("accepted fat count %d of %d vertices", si.K, si.N)
		}
		for v := 0; v < si.N; v++ {
			if len(si.IDBits) != 0 && si.ID(v) >= si.N {
				t.Fatalf("accepted identifier %d of vertex %d, of %d vertices", si.ID(v), v, si.N)
			}
		}
		checkIDs(&si)
	})
}
