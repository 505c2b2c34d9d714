package adjserve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// FuzzServeRequest feeds arbitrary request payloads to a Server holding small
// adjacency and PLL distance engines, through serveFrame exactly as the frame
// loop hands it a payload. It must never panic, and the response must be an
// error frame, a shed frame, or the OK frame the engines' own answers imply:
// for a pair batch, count answers, each the engine's answer for the pair as
// decoded from the payload; for info and shard-info, the advertised bytes.
// A traced request's OK frame carries the trace flag and a well-formed trace
// block after that body, and a retired uvarint pair batch (op 1 or 4) draws
// exactly the error frame naming its op. Seeded from the golden request
// payloads, malformed frames of every kind and the retired ops' payloads.
func FuzzServeRequest(f *testing.F) {
	adj := testEngine(f, 400, 7)
	dist := testDistEngines(f, 400, 3)["pll"]
	srv := NewServer(adj, 0)
	srv.SetDistEngine(dist)
	for _, g := range goldenRequestPayloads() {
		f.Add(g.got)
	}
	f.Add(appendPairsReq(nil, opQuery, goldenRing(adj, 40)))
	f.Add(appendPairsReqTrace(nil, opDist, goldenTraceID, randomPairs(400, 40, 3)))
	f.Add([]byte{opInfo})
	f.Add([]byte{opShardInfo})
	f.Add([]byte{})
	whole := appendPairsReq(nil, opQuery, goldenRing(adj, 40))
	f.Add(whole[:len(whole)-1])                                      // truncated
	f.Add(append(slices.Clone(whole), 0))                            // one byte over
	f.Add(append([]byte{opDist}, bytes.Repeat([]byte{0xff}, 11)...)) // overlong count
	f.Add(refPairReq(opQuery, 3, 0, nil))                            // width 0
	f.Add(refPairReq(opDist, 1, 65, nil, make([]byte, 17)...))       // width 65
	f.Add(refPairReq(opQuery, 2, 9, [][2]int{{1, 2}}))               // a pair short
	retired, _ := retiredPayloads()
	for _, req := range retired {
		b, _ := hex.DecodeString(req)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, req []byte) {
		want, traced, ok := serveWant(adj, dist, req)
		// serveFrame strips a trace context in place: hand it a copy.
		resp := srv.serveFrame(slices.Clone(req), &connBuffers{}, time.Now(), 0, 0)
		if len(resp) == 0 {
			t.Fatalf("request %x: empty response", req)
		}
		switch resp[0] {
		case statusShed:
			if len(resp) != 1 {
				t.Fatalf("request %x: shed frame %x", req, resp)
			}
		case statusErr:
			msgLen, k := binary.Uvarint(resp[1:])
			if k <= 0 || msgLen != uint64(len(resp)-1-k) {
				t.Fatalf("request %x: malformed error frame %x", req, resp)
			}
			if ok || want != nil && !bytes.Equal(resp, want) {
				t.Fatalf("request %x: error frame %q, want %q", req, resp, want)
			}
		default:
			switch {
			case !ok:
				t.Fatalf("request %x must fail, answered %x", req, resp)
			case !traced:
				if !bytes.Equal(resp, want) {
					t.Fatalf("request %x: response %x, want %x", req, resp, want)
				}
			case len(resp) < len(want) || resp[0] != want[0]|opTraceFlag || !bytes.Equal(resp[1:len(want)], want[1:]):
				t.Fatalf("traced request %x: response %x, want body %x", req, resp, want)
			default:
				if err := parseTraceBlock(resp[len(want):], new(obs.SpanTally), obs.HopSelf); err != nil {
					t.Fatalf("traced request %x: trace block %x: %v", req, resp[len(want):], err)
				}
			}
		}
	})
}

// serveWant is the fuzzer's oracle, written from the wire format in the
// package doc rather than from the serving loop — pairs come from the
// bit-by-bit reference reader, never the production decoder: the untraced OK response a
// server over adj and dist owes req, whether that response is extended by a
// trace block, and ok=false when req must draw an error frame instead (want,
// when not nil, is then that exact frame).
func serveWant(adj *core.QueryEngine, dist *core.DistEngine, req []byte) (want []byte, traced, ok bool) {
	if len(req) > traceIDLen && req[0]&opTraceFlag != 0 {
		traced = true
		req = append([]byte{req[0] &^ opTraceFlag}, req[1+traceIDLen:]...)
	}
	if len(req) == 0 {
		return nil, false, false
	}
	op, body := req[0], req[1:]
	switch op {
	case opInfo:
		return binary.AppendUvarint([]byte{statusOK}, uint64(adj.N())), traced, true
	case opShardInfo:
		return buildShardInfo(adj, adj.N(), maxFramePayload), false, true
	case opQuery, opDist:
	case opQueryUvarint, opDistUvarint:
		return errFrame(fmt.Sprintf("retired op %d: uvarint pair batches are no longer served (upgrade the client)", op)), false, false
	default:
		return nil, false, false
	}
	pairs, ok := refReadPairs(body, DefaultMaxBatch)
	if !ok {
		return nil, false, false
	}
	want = binary.AppendUvarint([]byte{statusOK}, uint64(len(pairs)))
	for i, p := range pairs {
		u, v := p[0], p[1]
		if op == opQuery {
			a, err := adj.Adjacent(int(u), int(v))
			if err != nil {
				return nil, false, false
			}
			if i%8 == 0 {
				want = append(want, 0)
			}
			if a {
				want[len(want)-1] |= 1 << (7 - i%8)
			}
			continue
		}
		d, err := dist.Dist(int(u), int(v))
		if err != nil {
			return nil, false, false
		}
		if d < 0 || d > 254 {
			d = 255
		}
		want = binary.AppendUvarint(want, uint64(d))
	}
	return want, traced, true
}
