package adjserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Golden frames: the exact bytes both pair planes put on the wire — request
// payloads as the client encodes them, Server.process responses for frames
// whose size or first failure sits on and around the probe kernel's 32-pair
// block boundary, and what a router answers downstream over a shard partition
// and a replica fleet. The expectations are literals (and, for OK frames, also
// the scalar engine's answers encoded by hand). Nothing here names a serving
// loop: frames go through Server.process or over a real socket, so the same
// file run against the commit before a serving-path change proves request,
// response and error-frame bytes did not move.

// goldenFrame answers one request payload through a fresh connection scratch.
func goldenFrame(srv *Server, req []byte) []byte {
	resp, _ := srv.process(req, &connBuffers{})
	return append([]byte(nil), resp...)
}

// wireFrame sends one request payload to addr on a fresh connection and
// returns the response payload — what any client sees, whatever code answers.
func wireFrame(t testing.TB, addr string, req []byte) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hdr := frameHeader(len(req))
	if _, err := c.Write(append(hdr[:], req...)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(c, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func errFrame(msg string) []byte {
	out := append([]byte{statusErr}, binary.AppendUvarint(nil, uint64(len(msg)))...)
	return append(out, msg...)
}

// goldenHex renders a frame the way the golden tables hold it: hex, or the
// sha256 of frames too long to read.
func goldenHex(frame []byte) string {
	if len(frame) > 48 {
		sum := sha256.Sum256(frame)
		return "sha256:" + hex.EncodeToString(sum[:])
	}
	return hex.EncodeToString(frame)
}

// packBits is the adjacency answer codec by hand: status, count, then bit i
// MSB-first within byte i/8.
func packBits(t testing.TB, eng *core.QueryEngine, pairs [][2]int) []byte {
	t.Helper()
	out := binary.AppendUvarint([]byte{statusOK}, uint64(len(pairs)))
	bits := make([]byte, (len(pairs)+7)/8)
	for i, p := range pairs {
		adj, err := eng.Adjacent(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if adj {
			bits[i/8] |= 1 << (7 - uint(i)%8)
		}
	}
	return append(out, bits...)
}

// packDists is the distance answer codec by hand: status, count, then one
// uvarint per pair with 255 for unreachable.
func packDists(t testing.TB, eng *core.DistEngine, pairs [][2]int) []byte {
	t.Helper()
	out := binary.AppendUvarint([]byte{statusOK}, uint64(len(pairs)))
	for _, p := range pairs {
		d, err := eng.Dist(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 || d > 254 {
			d = 255
		}
		out = binary.AppendUvarint(out, uint64(d))
	}
	return out
}

// goldenRing is the shared probe ring over an n-vertex adjacency engine: every
// eleventh pair is a known edge, so the answer bits are not all zero.
func goldenRing(eng *core.QueryEngine, count int) [][2]int {
	n := eng.N()
	ring := randomPairs(n, count, 3)
	for i := 0; i < len(ring); i += 11 {
		for v := 0; v < n; v++ {
			if ok, _ := eng.Adjacent(ring[i][0], v); ok {
				ring[i][1] = v
				break
			}
		}
	}
	return ring
}

func TestGoldenOKFrames(t *testing.T) {
	eng := testEngine(t, 500, 7)
	ring := goldenRing(eng, 4096)
	golden := map[int]string{
		0:    "0000",
		1:    "000180",
		31:   "001f80100280",
		32:   "002080100280",
		33:   "00218010028000",
		4096: "sha256:e73ba02b029e9f01c2949070b17907c968c3668d0d9c6e10160bfcf9f7f9dfd4",
	}
	srv := NewServer(eng, 0)
	for _, count := range []int{0, 1, 31, 32, 33, 4096} {
		pairs := ring[:count]
		got := goldenFrame(srv, appendPairsReq(nil, opQuery, pairs))
		if want := packBits(t, eng, pairs); !bytes.Equal(got, want) {
			t.Errorf("count %d: frame %x, want %x", count, got, want)
		}
		if enc := goldenHex(got); enc != golden[count] {
			t.Errorf("count %d: frame %s, golden %s", count, enc, golden[count])
		}
	}
}

func TestGoldenErrorFrames(t *testing.T) {
	eng := testEngine(t, 500, 7)
	_, shards := shardEngines(t, 500, 3, 7)
	shard := shards[1]
	// A pair shard 1/3 cannot answer: both endpoints thin and owned elsewhere.
	var foreign [2]int
	for u := 0; u < 500 && foreign == ([2]int{}); u++ {
		if _, err := shard.Adjacent(u, 499-u); errors.Is(err, core.ErrNotResident) {
			foreign = [2]int{u, 499 - u}
		}
	}
	if foreign == ([2]int{}) {
		t.Fatal("no non-resident pair on shard 1/3")
	}
	const count = 40
	good := make([][2]int, count) // answerable on the full engine and on the shard
	for i := range good {
		good[i] = [2]int{200 + i, 250 + i} // both owned by shard 1/3 (167..333)
	}
	// req assembles a frame that claims count pairs at width w from the given
	// pairs and raw tail bytes, so it can stop short or carry garbage; the
	// good pairs are 200..289, so w = 9 is their own width.
	req := func(w uint, pairs [][2]int, tail ...byte) []byte {
		return refPairReq(opQuery, count, w, pairs, tail...)
	}
	with := func(n, at int, p [2]int) [][2]int {
		pairs := append([][2]int(nil), good[:n]...)
		pairs[at] = p
		return pairs
	}

	srv := NewServer(eng, 0)
	check := func(what string, frame []byte, want string) {
		t.Helper()
		if got := goldenFrame(srv, frame); !bytes.Equal(got, errFrame(want)) {
			t.Errorf("%s: frame %q, want %q", what, got, errFrame(want))
		}
	}
	for _, at := range []int{0, 31, 32, 33, count - 1} {
		// A frame whose fields stop at pair at is refused whole.
		check(fmt.Sprintf("truncated at %d", at), req(9, good[:at]),
			fmt.Sprintf("truncated: %d field bytes for 40 pairs of 9 bits", (18*at+7)/8))
		check(fmt.Sprintf("range at %d", at), appendPairsReq(nil, opQuery, with(count, at, [2]int{5, 70000})),
			fmt.Sprintf("pair %d (5,70000): core: vertex out of range: (5,70000) of 500", at))
		if at > 0 {
			// Of two engine errors, in the same block (at 31, 33, 39) or
			// the next (32), the lower index wins.
			pairs := with(count, at, [2]int{5, 70000})
			pairs[at-1] = [2]int{70000, 5}
			check(fmt.Sprintf("range before range at %d", at), appendPairsReq(nil, opQuery, pairs),
				fmt.Sprintf("pair %d (70000,5): core: vertex out of range: (70000,5) of 500", at-1))
		}
	}
	check("one byte short", req(9, good)[:3+90-1], "truncated: 89 field bytes for 40 pairs of 9 bits")
	check("trailing", req(9, good, 1, 2, 3), "3 trailing bytes after 40 pairs")
	check("width 0", req(0, nil), "bad pair width 0")
	check("width 65", req(65, good), "bad pair width 65")
	check("no width", []byte{opQuery, count}, "missing pair width")
	// Wider than the pairs need is still well-formed.
	if got, want := goldenFrame(srv, req(17, good)), packBits(t, eng, good); !bytes.Equal(got, want) {
		t.Errorf("width 17: frame %x, want %x", got, want)
	}
	// A vertex past 2^63 prints as the client sent it in the pair, and as
	// the engine saw it in the cause.
	check("huge vertex", appendPairsReq(nil, opQuery, [][2]int{{-1, 1}}),
		"pair 0 (18446744073709551615,1): core: vertex out of range: (-1,1) of 500")

	shardSrv := NewServer(shard, 0)
	for _, at := range []int{0, 31, 32, 33, count - 1} {
		want := fmt.Sprintf("pair %d (%d,%d): core: query not resident on this shard: (%d,%d) on shard 1/3",
			at, foreign[0], foreign[1], foreign[0], foreign[1])
		if got := goldenFrame(shardSrv, appendPairsReq(nil, opQuery, with(count, at, foreign))); !bytes.Equal(got, errFrame(want)) {
			t.Errorf("not resident at %d: frame %q, want %q", at, got, errFrame(want))
		}
	}
}

// TestGoldenDistFrames pins the distance plane's Server.process bytes the way
// the two tests above pin adjacency's: OK frames on and around the 32-pair
// block boundary, and every error frame the plane can answer.
func TestGoldenDistFrames(t *testing.T) {
	eng := testDistEngines(t, 400, 3)["pll"]
	srv := NewServer(nil, 0)
	srv.SetDistEngine(eng)
	ring := randomPairs(400, 256, 3)
	golden := map[int]string{
		0:   "0000",
		1:   "000105",
		31:  "001f050304ff01ff0104040503ff01ff0102040104020403030204040406ff01040303ff010303",
		32:  "0020050304ff01ff0104040503ff01ff0102040104020403030204040406ff01040303ff01030302",
		33:  "0021050304ff01ff0104040503ff01ff0102040104020403030204040406ff01040303ff0103030203",
		256: "sha256:a1118278cb16f4d50bf573097d46bb6c2b7b497a40dbc648063261043de6727d",
	}
	for _, count := range []int{0, 1, 31, 32, 33, 256} {
		pairs := ring[:count]
		got := goldenFrame(srv, appendPairsReq(nil, opDist, pairs))
		if want := packDists(t, eng, pairs); !bytes.Equal(got, want) {
			t.Errorf("count %d: frame %x, want %x", count, got, want)
		}
		if enc := goldenHex(got); enc != golden[count] {
			t.Errorf("count %d: frame %s, golden %s", count, enc, golden[count])
		}
	}
	// An isolated vertex is unreachable from everywhere: the 255 sentinel, a
	// two-byte uvarint.
	for v := 0; v < 400; v++ {
		if d, _ := eng.Dist(0, v); d < 0 {
			got := goldenFrame(srv, appendPairsReq(nil, opDist, [][2]int{{0, v}, {v, v}}))
			if want := []byte{statusOK, 2, 0xff, 0x01, 0}; !bytes.Equal(got, want) {
				t.Errorf("unreachable (0,%d): frame %x, want %x", v, got, want)
			}
			break
		}
	}

	const count = 40
	good := ring[:count]
	const w = 9 // identifiers below 400
	req := func(w uint, pairs [][2]int, tail ...byte) []byte {
		return refPairReq(opDist, count, w, pairs, tail...)
	}
	with := func(n, at int, p [2]int) [][2]int {
		pairs := append([][2]int(nil), good[:n]...)
		pairs[at] = p
		return pairs
	}
	check := func(what string, frame []byte, want string) {
		t.Helper()
		if got := goldenFrame(srv, frame); !bytes.Equal(got, errFrame(want)) {
			t.Errorf("%s: frame %q, want %q", what, got, errFrame(want))
		}
	}
	for _, at := range []int{0, 31, 32, count - 1} {
		truncated := fmt.Sprintf("truncated: %d field bytes for 40 pairs of %d bits", (18*at+7)/8, w)
		check(truncated, req(w, good[:at]), truncated)
		rangeAt := fmt.Sprintf("pair %d (5,70000): core: vertex out of range: (5,70000) of 400", at)
		check(rangeAt, appendPairsReq(nil, opDist, with(count, at, [2]int{5, 70000})), rangeAt)
		if at > 0 {
			// The lowest failing index wins.
			pairs := with(count, at, [2]int{5, 70000})
			pairs[at-1] = [2]int{70000, 5}
			before := fmt.Sprintf("pair %d (70000,5): core: vertex out of range: (70000,5) of 400", at-1)
			check("range before range", appendPairsReq(nil, opDist, pairs), before)
		}
	}
	check("trailing", req(w, good, 1, 2, 3), "3 trailing bytes after 40 pairs")
	check("width 0", req(0, good), "bad pair width 0")
	check("width 65", req(65, good), "bad pair width 65")
	check("count", []byte{opDist}, "bad pair count")
	check("oversize", binary.AppendUvarint([]byte{opDist}, DefaultMaxBatch+1),
		fmt.Sprintf("batch of %d pairs exceeds limit %d", DefaultMaxBatch+1, DefaultMaxBatch))
	check("huge vertex", appendPairsReq(nil, opDist, [][2]int{{-1, 1}}),
		"pair 0 (18446744073709551615,1): core: vertex out of range: (-1,1) of 400")

	adjOnly := NewServer(testEngine(t, 100, 7), 0)
	if got, want := goldenFrame(adjOnly, appendPairsReq(nil, opDist, good)), errFrame("server holds no distance engine"); !bytes.Equal(got, want) {
		t.Errorf("no distance engine: frame %q, want %q", got, want)
	}
	if got, want := goldenFrame(srv, appendPairsReq(nil, opQuery, good)), errFrame("server holds no adjacency engine"); !bytes.Equal(got, want) {
		t.Errorf("no adjacency engine: frame %q, want %q", got, want)
	}
	if got, want := goldenFrame(srv, []byte{9}), errFrame("unknown op 9"); !bytes.Equal(got, want) {
		t.Errorf("unknown op: frame %q, want %q", got, want)
	}
}

// goldenRequest is one request payload TestGoldenRequestPayloads pins; the
// payloads also seed FuzzServeRequest.
type goldenRequest struct {
	name string
	got  []byte
	want string
}

func goldenRequestPayloads() []goldenRequest {
	// The largest identifier, 70000, is 17 bits long: w = 0x11, and the six
	// fields 0, 1, 127, 128, 300, 70000 take 102 bits, 13 bytes with the pad.
	pairs := [][2]int{{0, 1}, {127, 128}, {300, 70000}}
	const fields = "00000000400fe00800096445c0"
	const id = 0x0807060504030201
	return []goldenRequest{
		{"query", appendPairsReq(nil, opQuery, pairs), "050311" + fields},
		{"dist", appendPairsReq(nil, opDist, pairs), "060311" + fields},
		{"query traced", appendPairsReqTrace(nil, opQuery, id, pairs), "850102030405060708" + "0311" + fields},
		{"dist traced", appendPairsReqTrace(nil, opDist, id, pairs), "860102030405060708" + "0311" + fields},
		// The package doc's example: (1,2),(3,0) at w = 2 is 01 10 11 00.
		{"doc example", appendPairsReq(nil, opQuery, [][2]int{{1, 2}, {3, 0}}), "0502026c"},
		// A negative identifier travels as its 64 bits.
		{"bit 63", appendPairsReq(nil, opQuery, [][2]int{{-1, 1}}), "050140" + "ffffffffffffffff" + "0000000000000001"},
		{"empty query", appendPairsReq(nil, opQuery, nil), "050001"},
		{"empty dist traced", appendPairsReqTrace(nil, opDist, id, nil), "8601020304050607080001"},
	}
}

// TestGoldenRequestPayloads pins what the client puts on the wire for a pair
// batch on either plane, untraced and traced.
func TestGoldenRequestPayloads(t *testing.T) {
	for _, tc := range goldenRequestPayloads() {
		if enc := hex.EncodeToString(tc.got); enc != tc.want {
			t.Errorf("%s: payload %s, want %s", tc.name, enc, tc.want)
		}
	}
}

// retiredPayloads are pair batches as a client before packed pair frames
// wrote them (ops 1 and 4, uvarint pairs; byte for byte that build's pinned
// request payloads), with the error frame every server and router answers.
func retiredPayloads() (reqs []string, want map[string][]byte) {
	q := errFrame("retired op 1: uvarint pair batches are no longer served (upgrade the client)")
	d := errFrame("retired op 4: uvarint pair batches are no longer served (upgrade the client)")
	want = map[string][]byte{
		"010300017f8001ac02f0a204":                 q,
		"040300017f8001ac02f0a204":                 d,
		"8101020304050607080300017f8001ac02f0a204": q,
		"8401020304050607080300017f8001ac02f0a204": d,
		"0100":                 q,
		"84010203040506070800": d,
	}
	for req := range want {
		reqs = append(reqs, req)
	}
	slices.Sort(reqs)
	return reqs, want
}

// TestRetiredOpsRefused: a pair batch in the retired uvarint format gets the
// error frame naming its op from a server and from a router over either
// fleet shape — never an answer read from bytes in another format.
func TestRetiredOpsRefused(t *testing.T) {
	full, dist, partition, replicas := goldenFleets(t)
	srv := NewServer(full, 0)
	srv.SetDistEngine(dist)
	ln, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	reqs, want := retiredPayloads()
	for _, hexReq := range reqs {
		req, _ := hex.DecodeString(hexReq)
		// serveFrame strips a trace context in place: hand it a copy.
		if got := srv.serveFrame(slices.Clone(req), &connBuffers{}, time.Now(), 0, 0); !bytes.Equal(got, want[hexReq]) {
			t.Errorf("%s to serveFrame: %q, want %q", hexReq, got, want[hexReq])
		}
		for name, addr := range map[string]string{"server": ln.Addr().String(), "partition": partition.addr, "replicas": replicas.addr} {
			if got := wireFrame(t, addr, req); !bytes.Equal(got, want[hexReq]) {
				t.Errorf("%s to the %s: %q, want %q", hexReq, name, got, want[hexReq])
			}
		}
	}
	for _, f := range []goldenFleet{partition, replicas} {
		for _, s := range f.srvs {
			if n := s.Metrics().Queries.Load(); n != 0 {
				t.Errorf("an upstream answered %d queries for retired frames", n)
			}
		}
	}
}

// goldenShardInfoFrames builds the shard-info responses the golden test pins
// and the parser's fuzzer starts from: a whole store, the last shard of a
// three-shard range partition, and a distance-only server.
func goldenShardInfoFrames(t testing.TB) [][]byte {
	full, shards := shardEngines(t, 40, 3, 7)
	distOnly := NewServer(nil, 0)
	distOnly.SetDistEngine(testDistEngines(t, 40, 3)["pll"])
	return [][]byte{
		goldenFrame(NewServer(full, 0), []byte{opShardInfo}),
		goldenFrame(NewServer(shards[2], 0), []byte{opShardInfo}),
		goldenFrame(distOnly, []byte{opShardInfo}),
	}
}

// retiredShardInfoFrames are goldenShardInfoFrames' first two frames as a
// server before the permutation block sent them: the same header and k, then
// the ⌈log₂ n⌉-bit identifier block — 40·6 bits, vertex v's identifier in
// bits [6v, 6v+6). No parser admits them.
func retiredShardInfoFrames() [][]byte {
	ids, _ := hex.DecodeString("0812050061c310f60c25968d8e441128e49b71375479f96098b8555a29d7")
	return [][]byte{append([]byte{0, 40, 1, 0, 0, 2}, ids...), append([]byte{0, 40, 3, 2, 0, 2}, ids...)}
}

// TestGoldenShardInfoFrames pins the handshake's bytes — header, fat count,
// permutation block — that they parse back to what the engine holds, and that
// the frames of the identifier block before it are refused. By hand, for the
// 40-vertex labeling:
//
//	00          status ok
//	28          n = 40
//	01 00 | 03 02   shard count 1, index 0 (whole store) | count 3, index 2
//	00          ownership function 0, range
//	02          k = 2: identifiers 0 and 1 are the fat vertices
//	09          the permutation block: R = 9 increasing runs of the order
//	01 01 03 03 04 03 09 0b 05   their lengths, summing to 40
//	2143...86   40 run fields of ⌈log₂ 9⌉ = 4 bits, 20 bytes, field v the
//	            run holding vertex v: 2 1 4 3 0 3 ... — vertex 4 is run 0
//	            (identifier 0) and vertex 1 run 1 (identifier 1), so 1 and 4
//	            are fat; vertex 0 is run 2's smallest vertex, identifier 2.
//	            The shard's block is the whole store's (an absent label's
//	            identifier is its rank)
//
// The distance-only server sends the whole-store header, k = 0 and no block.
func TestGoldenShardInfoFrames(t *testing.T) {
	frames := goldenShardInfoFrames(t)
	const block = "09010103030403090b05" + "2143033226754775886645677676778784766786"
	for i, want := range []string{
		"0028010000" + "02" + block,
		"0028030200" + "02" + block,
		"0028010000" + "00",
	} {
		if got := hex.EncodeToString(frames[i]); got != want {
			t.Errorf("shard-info frame %d: %s, golden %s", i, got, want)
		}
	}
	var si ShardInfo
	if err := parseShardInfo(&si, frames[1][1:]); err != nil {
		t.Fatal(err)
	}
	full, _ := shardEngines(t, 40, 3, 7)
	if want := (core.ShardMap{Count: 3, Index: 2, Fn: core.ShardRange}); si.N != 40 || si.Map != want || si.K != 2 {
		t.Fatalf("parsed n = %d, map %+v, k = %d; want 40, %+v, 2", si.N, si.Map, si.K, want)
	}
	if !bytes.Equal(si.IDBits, full.AppendPermutation(nil)) {
		t.Fatal("parsed permutation block differs from the engine's")
	}
	for i, frame := range retiredShardInfoFrames() {
		if err := parseShardInfo(&si, frame[1:]); err == nil || !strings.Contains(err.Error(), "layout permutation") {
			t.Errorf("retired shard-info frame %d: err = %v, want the block refused", i, err)
		}
	}
}

// goldenFleets boots the two fleet shapes a router admits: a 3-shard
// adjacency partition, and two replicas each holding the whole adjacency
// labeling and the PLL distance labeling of a same-sized graph. Shard 0 of the
// partition and replica 0 are armed to shed once their queued-frame gauge is
// pinned.
type goldenFleet struct {
	addr string // the router's
	srvs []*Server
}

func goldenFleets(t testing.TB) (full *core.QueryEngine, dist *core.DistEngine, partition, replicas goldenFleet) {
	t.Helper()
	boot := func(srvs []*Server) goldenFleet {
		addrs := make([]string, len(srvs))
		for i, srv := range srvs {
			ln, err := netListen(t)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetShedDepth(1)
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			addrs[i] = ln.Addr().String()
		}
		addr, _ := startRouter(t, addrs, 0)
		return goldenFleet{addr: addr, srvs: srvs}
	}
	full, shards := shardEngines(t, 400, 3, 7)
	dist = testDistEngines(t, 400, 3)["pll"]
	var part, repl []*Server
	for _, e := range shards {
		part = append(part, NewServer(e, 0))
	}
	for range [2]int{} {
		srv := NewServer(full, 0)
		srv.SetDistEngine(dist)
		repl = append(repl, srv)
	}
	return full, dist, boot(part), boot(repl)
}

// TestGoldenRouterFrames pins a router's downstream bytes for both planes
// over both fleet shapes: OK frames, the router's own range check, the
// shard/replica error noun after an upstream dies, shed propagation, and the
// refusal of distance frames on a partition.
func TestGoldenRouterFrames(t *testing.T) {
	full, dist, partition, replicas := goldenFleets(t)
	pairs := goldenRing(full, 100)
	adjReq, distReq := appendPairsReq(nil, opQuery, pairs), appendPairsReq(nil, opDist, pairs)

	wantAdj, wantDist := packBits(t, full, pairs), packDists(t, dist, pairs)
	const adjGolden = "006480100200000800002004000010"
	const distGolden = "sha256:957f7027a6f36451264f8bbc83950d340181bb588887ab2311d0d0286ea8b39f"
	for _, tc := range []struct {
		name, addr   string
		req, want    []byte
		wantEncoding string
	}{
		{"partition adjacency", partition.addr, adjReq, wantAdj, adjGolden},
		{"replicas adjacency", replicas.addr, adjReq, wantAdj, adjGolden},
		{"replicas distance", replicas.addr, distReq, wantDist, distGolden},
	} {
		got := wireFrame(t, tc.addr, tc.req)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: frame %x, want %x", tc.name, got, tc.want)
		}
		if enc := goldenHex(got); enc != tc.wantEncoding {
			t.Errorf("%s: frame %s, golden %s", tc.name, enc, tc.wantEncoding)
		}
	}
	for _, addr := range []string{partition.addr, replicas.addr} {
		if got, want := wireFrame(t, addr, []byte{opQuery, 0, 1}), []byte{statusOK, 0}; !bytes.Equal(got, want) {
			t.Errorf("empty adjacency frame: %x, want %x", got, want)
		}
	}
	if got, want := wireFrame(t, replicas.addr, []byte{opDist, 0, 1}), []byte{statusOK, 0}; !bytes.Equal(got, want) {
		t.Errorf("empty distance frame: %x, want %x", got, want)
	}

	// The router range-checks before it routes; the message is its own, not
	// the engine's.
	outOfRange := append(append([][2]int(nil), pairs[:33]...), [2]int{5, 70000})
	wantRange := errFrame("pair 33 (5,70000): vertex out of range [0,400)")
	for name, got := range map[string][]byte{
		"partition adjacency": wireFrame(t, partition.addr, appendPairsReq(nil, opQuery, outOfRange)),
		"replicas adjacency":  wireFrame(t, replicas.addr, appendPairsReq(nil, opQuery, outOfRange)),
		"replicas distance":   wireFrame(t, replicas.addr, appendPairsReq(nil, opDist, outOfRange)),
	} {
		if !bytes.Equal(got, wantRange) {
			t.Errorf("%s out of range: frame %q, want %q", name, got, wantRange)
		}
	}
	for name, tc := range map[string]struct {
		addr      string
		req, want []byte
	}{
		"partition truncated": {partition.addr, []byte{opQuery, 2, 8, 1, 2, 3}, errFrame("truncated: 3 field bytes for 2 pairs of 8 bits")},
		"replicas width 0":    {replicas.addr, []byte{opDist, 2, 0, 1, 2}, errFrame("bad pair width 0")},
		"replicas width 65":   {replicas.addr, []byte{opDist, 1, 65, 1, 2}, errFrame("bad pair width 65")},
		"partition no width":  {partition.addr, []byte{opQuery, 0}, errFrame("missing pair width")},
		"partition retired":   {partition.addr, []byte{opQueryUvarint, 2, 1, 2, 3, 4}, errFrame("retired op 1: uvarint pair batches are no longer served (upgrade the client)")},
		"replicas retired":    {replicas.addr, []byte{opDistUvarint, 0}, errFrame("retired op 4: uvarint pair batches are no longer served (upgrade the client)")},
		"partition trail":     {partition.addr, []byte{opQuery, 1, 1, 2, 3}, errFrame("1 trailing bytes after 1 pairs")},
		"replicas trail":      {replicas.addr, []byte{opDist, 1, 1, 2, 3, 4}, errFrame("2 trailing bytes after 1 pairs")},
		"replicas count":      {replicas.addr, []byte{opDist}, errFrame("bad pair count")},
		"partition oversize": {partition.addr, binary.AppendUvarint([]byte{opQuery}, DefaultMaxBatch+1),
			errFrame(fmt.Sprintf("batch of %d pairs exceeds limit %d", DefaultMaxBatch+1, DefaultMaxBatch))},
		"partition distance": {partition.addr, distReq,
			errFrame("distance queries require a replica fleet (this router fronts a 3-shard partition)")},
		"partition unknown op": {partition.addr, []byte{9}, errFrame("unknown op 9")},
	} {
		if got := wireFrame(t, tc.addr, tc.req); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: frame %q, want %q", name, got, tc.want)
		}
	}

	// Shed propagation: a frame that needs the shedding upstream is answered
	// with the one-byte shed frame on either plane; upstream 0 owns u=0.
	hot := [][2]int{{0, 1}}
	for _, f := range []goldenFleet{partition, replicas} {
		f.srvs[0].Metrics().QueuedFrames.Add(5)
	}
	for name, got := range map[string][]byte{
		"partition adjacency": wireFrame(t, partition.addr, appendPairsReq(nil, opQuery, hot)),
		"replicas adjacency":  wireFrame(t, replicas.addr, appendPairsReq(nil, opQuery, hot)),
		"replicas distance":   wireFrame(t, replicas.addr, appendPairsReq(nil, opDist, hot)),
	} {
		if !bytes.Equal(got, []byte{statusShed}) {
			t.Errorf("%s behind a shedding upstream: frame %x, want %x", name, got, []byte{statusShed})
		}
	}
	for _, f := range []goldenFleet{partition, replicas} {
		f.srvs[0].Metrics().QueuedFrames.Add(-5)
	}

	// A dead upstream poisons the frames routed to it with an error frame that
	// names it — as a shard on the adjacency plane, a replica on the distance
	// plane. The cause after the noun is the upstream client's error (it holds
	// a port number), so only the router's own prefix is pinned.
	partition.srvs[0].Close()
	replicas.srvs[0].Close()
	for name, tc := range map[string]struct {
		got    []byte
		prefix string
	}{
		"partition adjacency": {wireFrame(t, partition.addr, appendPairsReq(nil, opQuery, hot)), "shard 0 (1 pairs): adjserve: "},
		"replicas adjacency":  {wireFrame(t, replicas.addr, appendPairsReq(nil, opQuery, hot)), "shard 0 (1 pairs): adjserve: "},
		"replicas distance":   {wireFrame(t, replicas.addr, appendPairsReq(nil, opDist, hot)), "replica 0 (1 pairs): adjserve: "},
	} {
		msgLen, k := binary.Uvarint(tc.got[1:])
		if tc.got[0] != statusErr || k <= 0 || int(msgLen) != len(tc.got)-1-k || !strings.HasPrefix(string(tc.got[1+k:]), tc.prefix) {
			t.Errorf("%s after upstream 0 died: frame %q, want an error frame starting %q", name, tc.got, tc.prefix)
		}
	}
}

// traceShape splits a traced OK response into its untraced body (flag
// cleared) and the (stage, hop) sequence of its trace block; durations are
// the one part of the frame that is not reproducible.
func traceShape(t *testing.T, resp []byte, bodyLen int) (body []byte, shape [][2]uint8) {
	t.Helper()
	if len(resp) < bodyLen || resp[0] != statusOK|opTraceFlag {
		t.Fatalf("traced response %x: want flag byte %#x and a %d-byte body", resp, statusOK|opTraceFlag, bodyLen)
	}
	body = append([]byte{statusOK}, resp[1:bodyLen]...)
	var tally obs.SpanTally
	if err := parseTraceBlock(resp[bodyLen:], &tally, obs.HopSelf); err != nil {
		t.Fatalf("trace block %x: %v", resp[bodyLen:], err)
	}
	for _, st := range tally.Stages() {
		shape = append(shape, [2]uint8{st.Stage, st.Hop})
	}
	return body, shape
}

// goldenTraceID is the trace id the golden traced requests carry.
const goldenTraceID = 0x0807060504030201

// tracedGolden is one traced frame TestGoldenTracedFrames pins: the response
// a hop sent, the untraced body it must carry, and the (stage, hop) sequence
// of its trace block.
type tracedGolden struct {
	name       string
	resp, want []byte
	shape      [][2]uint8
}

// goldenTracedFrames sends one traced 100-pair frame on each plane to a
// server, and through a router over both fleet shapes, and returns what came
// back and the server's address. The trace blocks behind the bodies seed
// FuzzParseTraceBlock.
func goldenTracedFrames(t testing.TB) (frames []tracedGolden, direct string) {
	full, dist, partition, replicas := goldenFleets(t)
	pairs := goldenRing(full, 100)
	wantAdj, wantDist := packBits(t, full, pairs), packDists(t, dist, pairs)

	self := obs.HopSelf
	serverShape := [][2]uint8{{obs.StageQueue, self}, {obs.StageRead, self}, {obs.StageProbe, self}}
	// Per upstream, in upstream order: its queue/read/probe relabeled with
	// its index, then the upstream client's own time folded into one net stage.
	routerShape := func(upstreams int) [][2]uint8 {
		shape := [][2]uint8{{obs.StageScatter, self}, {obs.StageUpstream, self}}
		for s := uint8(0); s < uint8(upstreams); s++ {
			shape = append(shape, [2]uint8{obs.StageQueue, s}, [2]uint8{obs.StageRead, s},
				[2]uint8{obs.StageProbe, s}, [2]uint8{obs.StageNet, s})
		}
		return append(shape, [2]uint8{obs.StageGather, self}, [2]uint8{obs.StageQueue, self}, [2]uint8{obs.StageRead, self})
	}

	srv := NewServer(full, 0)
	srv.SetDistEngine(dist)
	ln, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	direct = ln.Addr().String()

	for _, tc := range []struct {
		name, addr string
		op         byte
		want       []byte
		shape      [][2]uint8
	}{
		{"server adjacency", direct, opQuery, wantAdj, serverShape},
		{"server distance", direct, opDist, wantDist, serverShape},
		{"partition adjacency", partition.addr, opQuery, wantAdj, routerShape(3)},
		{"replicas adjacency", replicas.addr, opQuery, wantAdj, routerShape(2)},
		{"replicas distance", replicas.addr, opDist, wantDist, routerShape(2)},
	} {
		resp := wireFrame(t, tc.addr, appendPairsReqTrace(nil, tc.op, goldenTraceID, pairs))
		frames = append(frames, tracedGolden{tc.name, resp, tc.want, tc.shape})
	}
	return frames, direct
}

// TestGoldenTracedFrames pins the traced response shape on both planes, from
// a server and through a router: the status byte carries the trace flag, the
// body is the untraced body, and the stage block lists the hop's stages in a
// fixed order.
func TestGoldenTracedFrames(t *testing.T) {
	frames, direct := goldenTracedFrames(t)
	for _, fr := range frames {
		body, shape := traceShape(t, fr.resp, len(fr.want))
		if !bytes.Equal(body, fr.want) {
			t.Errorf("%s: traced body %x, want %x", fr.name, body, fr.want)
		}
		if fmt.Sprint(shape) != fmt.Sprint(fr.shape) {
			t.Errorf("%s: stage block %v, want %v", fr.name, shape, fr.shape)
		}
	}
	// Error frames are never extended: a traced request that fails answers
	// byte-identically to the untraced protocol.
	bad := appendPairsReqTrace(nil, opDist, goldenTraceID, [][2]int{{5, 70000}})
	want := errFrame("pair 0 (5,70000): core: vertex out of range: (5,70000) of 400")
	if got := wireFrame(t, direct, bad); !bytes.Equal(got, want) {
		t.Errorf("traced error frame %q, want %q", got, want)
	}
}
