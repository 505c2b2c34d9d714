// Package adjserve is the network serving tier for adjacency labelings: a
// length-prefixed binary batch protocol over TCP, a server that answers
// query frames from a shared read-only core.QueryEngine, and a pipelining
// client. It turns the paper's "two tiny labels, no global state" property
// into the obvious deployment: one process memory-maps a label store
// (labelstore.Open), builds an engine over the mapped arena in O(header)
// time, and serves adjacency to the network; any number of such processes
// share a single page-cache copy of the labels.
//
// Wire format (all multi-byte integers are unsigned LEB128 uvarints except
// the frame length and the packed pair fields, which are fixed-width):
//
//	frame    u32 little-endian payload length, then the payload
//
//	request  op u8
//	         op=5 (query): pair batch, see below
//	         op=2 (info):  empty
//	         op=3 (shard-info): empty
//	         op=6 (dist):  pair batch, see below
//	         op=1, op=4:   retired (the uvarint pair batches of older peers):
//	                       refused by number with an error frame naming the
//	                       op, so a peer of either generation fails loudly
//	                       instead of reading the other's pairs wrong
//
//	pairs    uvarint pair count, then u8 width w (1 <= w <= 64), then the
//	         2·count identifiers u0, v0, u1, v1, ... as w-bit fields, MSB
//	         first, zero-padded to a byte: exactly ceil(2·count·w/8) bytes,
//	         anything else refuses the whole frame before any probe. The
//	         encoder picks w = max(1, bit length of the frame's largest
//	         identifier); a negative identifier travels as its uint64 bits
//	         (w = 64), and the engine refuses it as out of range. Worked
//	         example: pairs (1,2),(3,0) have largest identifier 3, so w = 2
//	         and the fields 01 10 11 00 make one byte, 0x6C: the query
//	         payload is 05 02 02 6c. A probe block of 32 pairs is 8w bytes,
//	         so every block starts on a byte.
//
//	response status u8
//	         status=0 (ok), query: uvarint pair count, then ceil(count/8)
//	                        bytes of answers, bit i MSB-first within its byte
//	         status=0 (ok), info:  uvarint n (vertex count served)
//	         status=0 (ok), shard-info: uvarint n, uvarint shard count,
//	                        uvarint shard index, ownership function u8 (0 =
//	                        range, the only value defined; the retired hash
//	                        function's 1 is refused by name), uvarint fat count
//	                        k (count=1/index=0 for an unsharded server, so a
//	                        router can front plain servers too), then the
//	                        permutation block (core.AppendPermutation: the
//	                        run-coded rank→vertex order a label store
//	                        carries, byte for byte) of the engine's
//	                        identifiers — rank r is the vertex whose
//	                        identifier is r — ending the response. Vertex v
//	                        is fat exactly when its identifier is below k;
//	                        the engine build checks that rule. The read rule
//	                        searches the label of the larger identifier, so a
//	                        router needs the identifiers and k to pick the
//	                        shard. A server holding no adjacency labels
//	                        (distance-only) sends k = 0 and no block. A
//	                        response with a block declares n ≤ 5 835 550 (the
//	                        range the ⌈log₂ n⌉-bit identifier block it carried
//	                        before fitted one frame; handshakeFits); the
//	                        whole response is one frame: past maxFramePayload
//	                        (16 MiB) the server answers an error frame naming
//	                        n and the cap instead, and a router cannot front
//	                        it — a chunked handshake is not built.
//	         status=0 (ok), dist: uvarint pair count, then one uvarint hop
//	                        distance per pair; 255 means unreachable or beyond
//	                        the serving scheme's bound (distances >= 255 are
//	                        clamped to the sentinel — power-law graphs have
//	                        Θ(log n) diameter, so real distances never get
//	                        close)
//	         status=1 (error): uvarint message length, message bytes
//	         status=2 (shed):  empty — the server (or a shard behind a
//	                        router) refused the work to protect its latency:
//	                        either the aggregate in-flight frame depth passed
//	                        the configured shedding bound, or the connection
//	                        itself was refused at the admission cap. Sheds are
//	                        retryable by construction (nothing was queried)
//	                        and poison only the request that drew them; the
//	                        connection stays up unless the shed answered an
//	                        admission rejection, which closes it right after.
//
// Requests on one connection are answered in order, so a client may write
// many frames before reading any response (pipelining); batching amortizes
// the syscall and framing cost, and the bit-vector response makes a 4096-
// query answer 512 bytes + 3 bytes of header.
//
// # Trace context
//
// Any query or dist frame may carry an optional trace context. Every peer
// that speaks ops 5 and 6 speaks it too, so there is no capability bit and no
// negotiation: a client traces a frame whenever its caller asked for a trace.
//
//	request  op u8 with the high bit (0x80) set, then a fixed 8-byte
//	         little-endian trace id, then the normal request body.
//
//	response for a traced request answered with status=0, the status byte has
//	         the high bit (0x80) set and a trace block follows the normal
//	         response body: uvarint stage count, then per stage u8 stage id,
//	         u8 hop label, uvarint duration ns. Stage ids and hop labels are
//	         defined in package obs (StageRead..StageFlush, HopSelf/HopPeer);
//	         a hop reports its own stages as HopSelf and passes through
//	         shard-labeled stages it gathered from its own upstreams. Error
//	         and shed responses are never extended — they stay byte-identical
//	         to the untraced protocol.
//
// The info and shard-info responses carry nothing past what their formats
// above imply, and clients refuse any byte more: a fleet's clients, routers
// and servers are upgraded together (a router also refuses a partition shard
// that sends no permutation block).
package adjserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/obs"
)

// Protocol constants. A frame payload is capped independently of the batch
// size so a malicious length prefix cannot make either side buy gigabytes.
const (
	opInfo      = 2
	opShardInfo = 3
	opQuery     = 5
	opDist      = 6

	// opQueryUvarint and opDistUvarint are the retired uvarint pair batches
	// (see the package doc): refused by number, never parsed.
	opQueryUvarint = 1
	opDistUvarint  = 4

	statusOK   = 0
	statusErr  = 1
	statusShed = 2

	// distBeyondWire is the on-wire distance sentinel: unreachable pairs,
	// distances beyond a bounded scheme's f, and (degenerately) any true
	// distance >= 255 all map to it. Clients surface it as -1
	// (graph.Unreachable / distance.Beyond).
	distBeyondWire = 255

	frameHeaderLen  = 4
	maxFramePayload = 16 << 20

	// DefaultMaxBatch is the default per-frame pair limit, for both the
	// server's admission check and the client's transparent chunking.
	DefaultMaxBatch = 1 << 16

	// opTraceFlag marks a traced frame: set on a request op byte (followed by
	// an 8-byte little-endian trace id before the normal body) and echoed on
	// the response status byte (followed by a trace block after the normal
	// body). Ops and statuses stay below 0x80, so the bit is unambiguous.
	opTraceFlag = 0x80
	// traceIDLen is the fixed width of the on-wire trace id.
	traceIDLen = 8
)

// ErrClosed is returned for calls on a client whose connection is gone and
// for servers that have been shut down.
var ErrClosed = errors.New("adjserve: closed")

// ErrShed is returned for a request the server refused under load: the
// aggregate in-flight frame depth was past the shedding bound (or the
// connection was over the admission cap), so the server answered a shed frame
// instead of querying the engine. Nothing was computed — the request is safe
// to retry, ideally after backing off. A single package-level value keeps the
// client's shed path allocation-free.
var ErrShed = errors.New("adjserve: request shed under load")

// appendShed builds a shed-response payload: the status byte alone. Kept to
// one byte so the shed path costs a single buffered write and zero
// allocations — shedding exists to be cheaper than serving.
func appendShed(resp []byte) []byte { return append(resp, statusShed) }

// RemoteError is a server-reported per-request failure (malformed frame,
// oversized batch, out-of-range vertex). It poisons only the request that
// caused it: the connection stays up and later requests proceed.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "adjserve: server: " + e.Msg }

// appendErr builds an error-response payload.
func appendErr(resp []byte, format string, args ...any) []byte {
	msg := fmt.Sprintf(format, args...)
	resp = append(resp, statusErr)
	resp = binary.AppendUvarint(resp, uint64(len(msg)))
	return append(resp, msg...)
}

// appendInfo builds an info response: the vertex count served.
func appendInfo(resp []byte, n int) []byte {
	resp = append(resp, statusOK)
	return binary.AppendUvarint(resp, uint64(n))
}

// trivialShardMap is what an unsharded server — and a router, which presents
// its fleet as one — reports in the shard-info handshake, so a router can
// front plain servers, distance-only servers and other routers alike.
var trivialShardMap = core.ShardMap{Count: 1, Index: 0, Fn: core.ShardRange}

// appendShardInfo builds a shard-info response up to, not including, the
// permutation block the caller appends.
func appendShardInfo(resp []byte, n int, m core.ShardMap, k int) []byte {
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(n))
	resp = binary.AppendUvarint(resp, uint64(m.Count))
	resp = binary.AppendUvarint(resp, uint64(m.Index))
	resp = append(resp, byte(m.Fn))
	return binary.AppendUvarint(resp, uint64(k))
}

// handshakeFits reports whether a shard-info response whose header (status
// through k) is hdrLen bytes may carry a permutation block over n vertices:
// the vertex range the handshake accepted when its block held ⌈log₂ n⌉ bits
// per vertex and had to fit one frame beside the header (n ≤ 5 835 550). A
// one-run block is a few bytes at any n, so the frame no longer bounds n and
// this does, before a 4n-byte table is sized.
func handshakeFits(hdrLen int, n uint64) bool {
	return n <= 8*maxFramePayload && uint64(hdrLen)+(n*uint64(bitstr.WidthFor(n))+7)/8 <= maxFramePayload
}

// buildShardInfo builds the shard-info response of a server over eng (nil: a
// distance-only server of n vertices, which reports k = 0 and no permutation
// block) — or, when the response would not fit a frame of limit bytes, the
// error frame that says so. The engine is read-only once it serves, so a
// server builds this once and writes the same bytes to every handshake.
func buildShardInfo(eng *core.QueryEngine, n int, limit int) []byte {
	m, k := trivialShardMap, 0
	if eng != nil {
		k = eng.FatCount()
		if sm, ok := eng.Shard(); ok {
			m = sm
		}
	}
	resp := appendShardInfo(nil, n, m, k)
	if eng != nil {
		resp = eng.AppendPermutation(resp)
	}
	if len(resp) > limit {
		return appendErr(nil, "shard-info for %d vertices is %d bytes, over the %d-byte frame limit", n, len(resp), limit)
	}
	return resp
}

// appendPairsReq builds a pair-batch request payload under op (query or dist
// — the two share request framing and differ only in the response shape).
func appendPairsReq(buf []byte, op byte, pairs [][2]int) []byte {
	return appendPairs(append(buf, op), pairs)
}

// appendPairsReqTrace is appendPairsReq with a trace context prepended: the
// op byte carries opTraceFlag, followed by the fixed-width trace id.
func appendPairsReqTrace(buf []byte, op byte, id uint64, pairs [][2]int) []byte {
	buf = append(buf, op|opTraceFlag)
	return appendPairs(binary.LittleEndian.AppendUint64(buf, id), pairs)
}

// pairSlack is the spare capacity the pair codec keeps behind a packed body:
// it loads and stores whole 64-bit words (and a ninth byte on fields wider
// than 28 bits) at a field's first byte, so the last field's window may reach
// up to 8 bytes past the body's end. appendPairs leaves it behind what it
// writes and reqBuf.request behind every payload it reads, so the decoder
// never copies a block to the stack; the bytes there are never part of a
// decoded identifier.
const pairSlack = 8

// pairWidth is a batch's field width: the bit length of its largest
// identifier (a negative one counts as its uint64 bits), at least 1.
func pairWidth(pairs [][2]int) uint {
	var all uint64
	for _, p := range pairs {
		all |= uint64(p[0]) | uint64(p[1])
	}
	return uint(max(1, bits.Len64(all)))
}

// packedLen is the byte length of count pairs' fields at width w.
func packedLen(count int, w uint) int { return (2*count*int(w) + 7) / 8 }

// appendPairs appends a pair-batch request body — count, width, packed
// fields (see the package doc) — with pairSlack bytes of spare capacity
// behind it. Fields of at most 28 bits write a pair in one 64-bit store;
// wider ones write each field in a word and a byte. Every store ORs in the
// bits already in its first byte, whose low bits the previous store zeroed.
func appendPairs(buf []byte, pairs [][2]int) []byte {
	w := pairWidth(pairs)
	buf = append(binary.AppendUvarint(buf, uint64(len(pairs))), byte(w))
	start, n := len(buf), packedLen(len(pairs), w)
	buf = slices.Grow(buf, n+pairSlack)[:start+n+pairSlack]
	out := buf[start:]
	out[0] = 0
	if 2*w <= 56 {
		packNarrow(out, pairs, w)
	} else {
		for j, p := range pairs {
			bit := uint(j) * 2 * w
			putField(out, bit, w, uint64(p[0]))
			putField(out, bit+w, w, uint64(p[1]))
		}
	}
	return buf[:start+n]
}

// packNarrow is appendPairs at 2w <= 56: one load and one store per pair.
func packNarrow(out []byte, pairs [][2]int, w uint) {
	// Shift counts masked to 63 compile to bare shifts.
	sh, w := (64-2*w)&63, w&63
	for j, bit := 0, uint(0); j < len(pairs); j, bit = j+1, bit+2*w {
		i := bit >> 3
		x := (uint64(pairs[j][0])<<w | uint64(pairs[j][1])) << sh >> (bit & 7)
		binary.BigEndian.PutUint64(out[i:i+8], uint64(out[i])<<56|x)
	}
}

// putField writes the w-bit field x at bit offset bit of out: a 64-bit store
// at its first byte, then the byte after it (zero when bit is byte-aligned).
func putField(out []byte, bit, w uint, x uint64) {
	i, s := bit>>3, bit&7
	x <<= 64 - w
	win := out[i : i+9]
	binary.BigEndian.PutUint64(win, uint64(win[0])<<56|x>>s)
	win[8] = byte(x << (8 - s))
}

// readPairHeader reads a pair-batch request body's count and width and
// checks its length: fields must be exactly the packedLen(count, w) bytes the
// header implies. Any failure refuses the whole frame before a probe; err is
// the error frame's message.
func readPairHeader(body []byte, maxBatch int) (count int, w uint, fields []byte, err error) {
	c, k := binary.Uvarint(body)
	if k <= 0 {
		return 0, 0, nil, errors.New("bad pair count")
	}
	if c > uint64(maxBatch) {
		return 0, 0, nil, fmt.Errorf("batch of %d pairs exceeds limit %d", c, maxBatch)
	}
	body = body[k:]
	if len(body) == 0 {
		return 0, 0, nil, errors.New("missing pair width")
	}
	w, fields = uint(body[0]), body[1:]
	if w == 0 || w > 64 {
		return 0, 0, nil, fmt.Errorf("bad pair width %d", w)
	}
	// Every pair takes at least 2 bits: past 4 per byte the count is
	// truncated whatever the width, and below it packedLen cannot overflow.
	if c > 4*uint64(len(fields)) || packedLen(int(c), w) > len(fields) {
		return 0, 0, nil, fmt.Errorf("truncated: %d field bytes for %d pairs of %d bits", len(fields), c, w)
	}
	if extra := len(fields) - packedLen(int(c), w); extra != 0 {
		return 0, 0, nil, fmt.Errorf("%d trailing bytes after %d pairs", extra, c)
	}
	return int(c), w, fields, nil
}

// decodePairs fills dst, at most core.ProbeBlock pairs, from the front of
// fields at width w (readPairHeader has checked the length) and returns the
// fields after them. Fields of at most 28 bits read a pair with one 64-bit
// load; wider ones read each field with a word and a byte. A block without
// pairSlack bytes of capacity behind it is copied to the stack first, so
// nothing past len(fields) reaches an identifier either way.
func decodePairs(dst [][2]int, fields []byte, w uint) (rest []byte) {
	n := packedLen(len(dst), w)
	src := fields[:n]
	if cap(src)-n < pairSlack {
		var tmp [8*64 + pairSlack]byte // a whole block at w = 64
		src = tmp[:copy(tmp[:], src)]
	}
	if 2*w <= 56 {
		unpackNarrow(dst, src, w)
	} else {
		for j := range dst {
			bit := uint(j) * 2 * w
			dst[j] = [2]int{int(getField(src, bit, w)), int(getField(src, bit+w, w))}
		}
	}
	return fields[n:]
}

// unpackNarrow is decodePairs at 2w <= 56: one load per pair. Kept apart from
// the stack copy so the loop's state stays in registers.
func unpackNarrow(dst [][2]int, src []byte, w uint) {
	// Shift counts masked to 63 compile to bare shifts.
	sh, w := (64-2*w)&63, w&63
	mask := uint64(1)<<w - 1
	for j, bit := 0, uint(0); j < len(dst); j, bit = j+1, bit+2*w {
		i := bit >> 3
		x := binary.BigEndian.Uint64(src[i:i+8]) << (bit & 7) >> sh
		dst[j] = [2]int{int(x >> w), int(x & mask)}
	}
}

// getField reads the w-bit field at bit offset bit of src: the word at its
// first byte, topped up from the byte after it.
func getField(src []byte, bit, w uint) uint64 {
	i, s := bit>>3, bit&7
	win := src[i : i+9]
	x := binary.BigEndian.Uint64(win)<<s | uint64(win[8])>>(8-s)
	return x >> (64 - w)
}

// appendBadOp builds the error frame for an op no plane serves, naming the
// retired uvarint pair batches as such.
func appendBadOp(resp []byte, op byte) []byte {
	if op == opQueryUvarint || op == opDistUvarint {
		return appendErr(resp, "retired op %d: uvarint pair batches are no longer served (upgrade the client)", op)
	}
	return appendErr(resp, "unknown op %d", op)
}

// appendTraceTally appends a response trace block carrying t's stages:
// uvarint stage count, then per stage u8 id, u8 hop, uvarint nanoseconds.
// Negative durations (clock retreat) clamp to zero so the uvarint encoding
// stays compact.
func appendTraceTally(resp []byte, t *obs.SpanTally) []byte {
	st := t.Stages()
	resp = binary.AppendUvarint(resp, uint64(len(st)))
	for _, s := range st {
		resp = append(resp, s.Stage, s.Hop)
		ns := s.Ns
		if ns < 0 {
			ns = 0
		}
		resp = binary.AppendUvarint(resp, uint64(ns))
	}
	return resp
}

// errMalformedTrace poisons a call whose response trace block cannot be
// decoded; like any RemoteError it fails the one call, not the connection.
var errMalformedTrace = &RemoteError{Msg: "malformed trace block"}

// parseTraceBlock merges a response trace block (exactly the bytes of b)
// into t, relabeling the sender's own HopSelf stages to hop; shard-labeled
// stages the sender gathered from its upstreams pass through unchanged. A
// duration of 2^63 ns or more, which would read back negative and which
// appendTraceTally never writes, refuses the block.
func parseTraceBlock(b []byte, t *obs.SpanTally, hop uint8) error {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return errMalformedTrace
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		if len(b) < 2 {
			return errMalformedTrace
		}
		stage, h := b[0], b[1]
		b = b[2:]
		ns, n := binary.Uvarint(b)
		if n <= 0 || ns > math.MaxInt64 {
			return errMalformedTrace
		}
		b = b[n:]
		if h == obs.HopSelf {
			h = hop
		}
		t.Add(stage, h, int64(ns))
	}
	if len(b) != 0 {
		return errMalformedTrace
	}
	return nil
}

// wireDist clamps an engine distance to its on-wire byte: -1 (unreachable /
// beyond bound) and anything that cannot fit under the sentinel both become
// distBeyondWire.
func wireDist(d int) uint64 {
	if d < 0 || d >= distBeyondWire {
		return distBeyondWire
	}
	return uint64(d)
}

// frameHeader encodes a payload length.
func frameHeader(n int) [frameHeaderLen]byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	return hdr
}
