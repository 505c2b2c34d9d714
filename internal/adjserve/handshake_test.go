package adjserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The shard-info handshake carries the permutation block: about a megabyte at
// serving scale (more for an order of many runs), so it is built once and kept
// out of pooled scratch, bounded by the frame limit with an error that names
// it, and — being bytes from a socket that decide where every pair goes —
// parsed strictly, n bounded before the decoder sizes a table, and fuzzed.

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
		if !bytes.Equal(blocks[i], shardInfoOf(eng)) {
			t.Fatalf("shard-info response of %d bytes, status %d, want the engine's", len(blocks[i]), blocks[i][0])
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
	if !bytes.Equal(si.IDBits, eng.AppendPermutation(nil)) {
		t.Fatal("permutation block changed on its way through a router")
	}
}

// TestClientDropsHandshakeReadBuffer: a response past maxReadScratch is
// delivered and its read buffer released while the connection lives on — the
// live heap is back where it was once the caller lets go of the ShardInfo.
// A reversed order is the block's worst case: every vertex a run.
func TestClientDropsHandshakeReadBuffer(t *testing.T) {
	const n = 1 << 20 // n one-byte run lengths and 20-bit run fields: 3.6 MB
	order := make([]int32, n)
	for r := range order {
		order[r] = int32(n - 1 - r)
	}
	body := appendShardInfo(nil, n, trivialShardMap, 0)
	block := core.AppendPermutation(nil, order)
	addr := fakeUpstream(t, append(body, block...))
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
	if !raceEnabled { // the race runtime's shadow heap moves HeapAlloc by megabytes
		kept := int64(liveHeap()) - int64(before) - int64(len(si.IDBits))
		if kept > maxReadScratch {
			t.Fatalf("%d bytes stayed live on the connection after a %d-byte handshake", kept, len(body)+len(block))
		}
	}
	if got, err := si.decodeOrder(); len(si.IDBits) < maxReadScratch || err != nil || !slices.Equal(got, order) {
		t.Fatalf("permutation block of %d bytes (above the %d-byte scratch cap?) decoding to the order sent: %v", len(si.IDBits), maxReadScratch, err)
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
}

// TestShardInfoVertexRange: a one-run block is a few bytes at any n, so the
// parser bounds n itself, at the range the ⌈log₂ n⌉-bit identifier block
// allowed: with a one-byte k the largest n is 5 835 550, whose 23-bit block
// filled a 16 MiB frame to the byte beside the 9-byte header. One vertex more
// is refused, and a few-byte body declaring 2^27 vertices is refused having
// allocated next to nothing — no 4n-byte table.
func TestShardInfoVertexRange(t *testing.T) {
	const top = 5_835_550
	oneRun := func(n uint64) []byte {
		body := appendShardInfo(nil, int(n), trivialShardMap, 0)[1:]
		return binary.AppendUvarint(append(body, 1), n) // R = 1, its length n, no fields
	}
	var si ShardInfo
	if err := parseShardInfo(&si, oneRun(top)); err != nil {
		t.Fatalf("n = %d: err = %v; want it accepted", top, err)
	}
	if order, err := si.decodeOrder(); err != nil || len(order) != top {
		t.Fatalf("n = %d: err = %v, %d vertices decoded; want it accepted", top, err, len(order))
	}
	for _, n := range []uint64{top + 1, 8 * maxFramePayload} {
		body, least := oneRun(n), ^uint64(0)
		for range 3 { // the least of three: the counter is process-wide
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			err := parseShardInfo(&si, body)
			runtime.ReadMemStats(&ms1)
			if err == nil || !strings.Contains(err.Error(), "past the handshake's vertex range") {
				t.Fatalf("%d-byte body declaring n = %d: err = %v, want the range refusal", len(body), n, err)
			}
			least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if least > 4<<10 {
			t.Fatalf("refusing n = %d allocated %d bytes", n, least)
		}
	}
}

// TestRouterNeedsIdentifierBlock: a distance-only server reports k = 0 and no
// permutation block, which a replica fleet admits; a partition shard without
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
		t.Fatalf("distance-only handshake: k = %d, %d block bytes; want 0 and none", si.K, len(si.IDBits))
	}
	if r, err := NewRouter([]string{daddr, daddr}, 0); err != nil {
		t.Fatalf("replica fleet of distance-only servers: %v", err)
	} else {
		r.Close()
	}

	_, engines := shardEngines(t, 300, 2, 5)
	addrs, _ := startShardFleet(t, engines)
	block := shardInfoOf(engines[0])
	stripped := block[:len(block)-len(engines[0].AppendPermutation(nil))]
	if _, err := NewRouter([]string{fakeUpstream(t, stripped), addrs[1]}, 0); err == nil || !strings.Contains(err.Error(), "no permutation block") {
		t.Fatalf("partition shard without a permutation block: err = %v", err)
	}
	if r, err := NewRouter([]string{fakeUpstream(t, block), addrs[1]}, 0); err != nil {
		t.Fatalf("the unedited block behind the same fake: %v", err)
	} else {
		r.Close()
	}
}

// FuzzParseShardInfo runs what a router does with a handshake body, the
// header parse and then the one decode of its block: any body either fails
// one of them or yields a ShardInfo that re-encodes to exactly the bytes
// parsed — its permutation block too, from the decoded order — with k at most
// n and a valid shard map. Seeded from the golden shard-info frames, the
// frames of the identifier block before them, and each way a body is refused.
func FuzzParseShardInfo(f *testing.F) {
	golden := goldenShardInfoFrames(f)
	for _, frame := range golden {
		f.Add(frame[1:])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{0x80, 0x00, 1, 0, 0}) // n = 0 spelled in two bytes
	whole := golden[0][1:]
	hdr, block := whole[:4], whole[5:] // n, count, index, function | k | permutation block
	hash := bytes.Clone(whole)
	hash[3] = 1
	// Over n = 40, runs of 14, 13 and 13 vertices at 2-bit fields; vertex 0's
	// field, 3, names no run.
	noRun := append(append(bytes.Clone(hdr), 2, 3, 14, 13, 13, 0xC0), make([]byte, 9)...)
	for _, r := range []struct {
		what, err string
		body      []byte
	}{
		{"k > n", "fat count 41", append(append(bytes.Clone(hdr), 41), block...)},
		{"k in two bytes", "bad shard-info fat count", append(append(bytes.Clone(hdr), 0x82, 0x00), block...)},
		{"a byte after the block", "1 shard-info bytes after the permutation block", append(bytes.Clone(whole), 0)},
		{"a field naming no run", "puts label 0 in run 3 of 3", noRun},
		{"the retired body, a fat bitmap before the block", "fat count 72 of 40", append(append(bytes.Clone(hdr), 0x48, 0, 0, 0, 0), block...)},
		{"the retired hash function", "re-run pllabel -shards", hash},
		{"the retired identifier block, whole store", "layout permutation", retiredShardInfoFrames()[0][1:]},
		{"the retired identifier block, shard 2 of 3", "layout permutation", retiredShardInfoFrames()[1][1:]},
		{"a distance-only body", "", golden[2][1:]},
	} {
		var si ShardInfo
		_, err := parseAndDecode(&si, r.body)
		if r.err == "" && (err != nil || len(si.IDBits) != 0) || r.err != "" && (err == nil || !strings.Contains(err.Error(), r.err)) {
			f.Fatalf("%s: err = %v, %d block bytes; want %q (empty: accepted, no block)", r.what, err, len(si.IDBits), r.err)
		}
		f.Add(r.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var si ShardInfo
		order, err := parseAndDecode(&si, body)
		if err != nil {
			return
		}
		again := append(appendShardInfo(nil, si.N, si.Map, si.K)[1:], si.IDBits...)
		if !bytes.Equal(again, body) {
			t.Fatalf("parsed %x, re-encoded %x", body, again)
		}
		if len(si.IDBits) != 0 && !bytes.Equal(core.AppendPermutation(nil, order), si.IDBits) {
			t.Fatalf("block %x decoded to an order that re-encodes otherwise", si.IDBits)
		}
		if err := si.Map.Validate(max(si.N, 1)); err != nil {
			t.Fatalf("accepted shard map %+v over %d vertices: %v", si.Map, si.N, err)
		}
		if si.K > si.N {
			t.Fatalf("accepted fat count %d of %d vertices", si.K, si.N)
		}
	})
}

// parseAndDecode is a router's whole reading of a handshake body: the header
// parse, then the one decode of its block.
func parseAndDecode(si *ShardInfo, body []byte) ([]int32, error) {
	if err := parseShardInfo(si, body); err != nil {
		return nil, err
	}
	return si.decodeOrder()
}
