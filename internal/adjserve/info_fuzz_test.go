package adjserve

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzDeliverInfo feeds the client's info-response parser arbitrary bodies.
// It must never panic, and it must either refuse a body or deliver exactly
// what the wire doc reads from it: the leading uvarint as the vertex count,
// the next uvarint as the capability bits — 0 when the server sent none or
// sent a malformed one — and nothing from any bytes after them. A count an
// int cannot hold is refused, never wrapped negative. Seeded from the golden
// info frames of an adjacency and a distance server, with and without a
// trailing extension, a body from before capabilities existed, and the edges
// of the uvarint range.
func FuzzDeliverInfo(f *testing.F) {
	adjSrv := NewServer(testEngine(f, 500, 7), 0)
	distSrv := NewServer(nil, 0)
	distSrv.SetDistEngine(testDistEngines(f, 400, 3)["pll"])
	for _, srv := range []*Server{adjSrv, distSrv} {
		body := goldenFrame(srv, []byte{opInfo})[1:]
		f.Add(body)
		f.Add(append(slices.Clone(body), 0x07, 0xff))
	}
	f.Add(binary.AppendUvarint(nil, 500))               // no capability uvarint
	f.Add(append(binary.AppendUvarint(nil, 500), 0x80)) // a truncated one
	f.Add(appendInfo(nil, 0)[1:])
	f.Add(binary.AppendUvarint(nil, math.MaxInt64))  // the largest count an int holds
	f.Add(binary.AppendUvarint(nil, math.MaxUint64)) // past it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		n, caps := -1, uint64(1)<<63 // stale values a delivery must overwrite
		err := deliverInfo(&call{infoN: &n, caps: &caps}, body)
		wantN, k := binary.Uvarint(body)
		if k <= 0 || wantN > math.MaxInt {
			if err == nil {
				t.Fatalf("body %x: accepted, n = %d", body, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("body %x: refused the count %d: %v", body, wantN, err)
		}
		wantCaps, _ := binary.Uvarint(body[k:])
		if uint64(n) != wantN || caps != wantCaps {
			t.Fatalf("body %x: delivered n = %d, caps = %#x; want n = %d, caps = %#x", body, n, caps, wantN, wantCaps)
		}
	})
}
