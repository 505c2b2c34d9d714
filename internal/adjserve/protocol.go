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
// the frame length, which is fixed-width):
//
//	frame    u32 little-endian payload length, then the payload
//
//	request  op u8
//	         op=1 (query): uvarint pair count, then per pair uvarint u, uvarint v
//	         op=2 (info):  empty
//	         op=3 (shard-info): empty
//	         op=4 (dist):  uvarint pair count, then per pair uvarint u, uvarint v
//
//	response status u8
//	         status=0 (ok), query: uvarint pair count, then ceil(count/8)
//	                        bytes of answers, bit i MSB-first within its byte
//	         status=0 (ok), info:  uvarint n (vertex count served)
//	         status=0 (ok), shard-info: uvarint n, uvarint shard count,
//	                        uvarint shard index, ownership function u8, then
//	                        ceil(n/8) bytes of fat-vertex bits, bit v MSB-first
//	                        within its byte (count=1/index=0 for an unsharded
//	                        server, so a router can front plain servers too),
//	                        then the identifier block: vertex v's scheme
//	                        identifier in bits [v·w, (v+1)·w), MSB first,
//	                        w = ceil(log2 n), ceil(n·w/8) bytes — the length is
//	                        implied by n. The read rule searches the label of
//	                        the larger identifier, so a router needs the
//	                        identifiers to pick the shard. A server holding no
//	                        adjacency labels (distance-only) sends no
//	                        identifier block at all. The whole response is one
//	                        frame: past maxFramePayload (16 MiB; n > 5.59 M) the
//	                        server answers an error frame naming n and the cap
//	                        instead, and a router cannot front it — a chunked
//	                        handshake is not built.
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
// Any query or dist frame may carry an optional trace context, negotiated so
// old and new peers interoperate:
//
//	request  op u8 with the high bit (0x80) set, then a fixed 8-byte
//	         little-endian trace id, then the normal request body. Servers
//	         that predate tracing would reject the unknown op with an error
//	         frame, so a client only sets the flag after the server
//	         advertised the capability (below).
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
//	caps     the info response carries a trailing capability uvarint after
//	         the vertex count: bit 0 (capTrace) advertises trace-context
//	         support. Old clients never read past the vertex count (the
//	         trailing bytes are ignored by construction), old servers send no
//	         capability bytes, and new clients treat the absence as "no
//	         capabilities" — both directions interoperate with no version
//	         handshake round trip. The shard-info response carries no
//	         capabilities: its parser rejects any length n does not imply, so
//	         routers and the servers behind them are upgraded together (a
//	         router refuses a partition shard that sends no identifier block).
package adjserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/obs"
)

// Protocol constants. A frame payload is capped independently of the batch
// size so a malicious length prefix cannot make either side buy gigabytes.
const (
	opQuery     = 1
	opInfo      = 2
	opShardInfo = 3
	opDist      = 4

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

	// capTrace is the trace-context capability bit in the info response's
	// trailing capability uvarint; a client only sets opTraceFlag on requests
	// to a server that advertised it.
	capTrace = 1 << 0

	// localCaps is what this build advertises in info responses.
	localCaps = capTrace
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

// appendInfo builds an info response: the vertex count served, then the
// trailing capability advertisement (see the package doc) — clients that
// predate capabilities stop reading after the vertex count.
func appendInfo(resp []byte, n int) []byte {
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(n))
	return binary.AppendUvarint(resp, localCaps)
}

// trivialShardMap is what an unsharded server — and a router, which presents
// its fleet as one — reports in the shard-info handshake, so a router can
// front plain servers, distance-only servers and other routers alike.
var trivialShardMap = core.ShardMap{Count: 1, Index: 0, Fn: core.ShardRange}

// appendShardInfo builds a shard-info response up to, not including, the
// ceil(n/8)-byte fat bitmap and the identifier block the caller appends.
func appendShardInfo(resp []byte, n int, m core.ShardMap) []byte {
	resp = append(resp, statusOK)
	resp = binary.AppendUvarint(resp, uint64(n))
	resp = binary.AppendUvarint(resp, uint64(m.Count))
	resp = binary.AppendUvarint(resp, uint64(m.Index))
	return append(resp, byte(m.Fn))
}

// buildShardInfo builds the shard-info response of a server over eng (nil: a
// distance-only server of n vertices, which reports an empty fat set and no
// identifier block) — or, when the response would not fit a frame of limit
// bytes, the error frame that says so. The engine is read-only once it
// serves, so a server builds this once and writes the same bytes to every
// handshake; at megabytes it must never pass through per-connection scratch.
func buildShardInfo(eng *core.QueryEngine, n int, limit int) []byte {
	m, fatLen, idLen := trivialShardMap, (n+7)/8, 0
	if eng != nil {
		idLen = bitstr.IDBlockLen(n)
		if sm, ok := eng.Shard(); ok {
			m = sm
		}
	}
	hdr := appendShardInfo(nil, n, m)
	size := len(hdr) + fatLen + idLen
	if size > limit {
		return appendErr(hdr[:0], "shard-info for %d vertices is %d bytes, over the %d-byte frame limit", n, size, limit)
	}
	resp := append(make([]byte, 0, size), hdr...)
	if eng == nil {
		return append(resp, make([]byte, fatLen)...)
	}
	return eng.AppendIDBits(eng.AppendFatBits(resp))
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

// appendPairs appends a pair-batch request body: the count, then the pairs.
func appendPairs(buf []byte, pairs [][2]int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, p := range pairs {
		buf = binary.AppendUvarint(buf, uint64(p[0]))
		buf = binary.AppendUvarint(buf, uint64(p[1]))
	}
	return buf
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
