package adjserve

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzDeliverInfo feeds the client's info-response parser arbitrary bodies.
// It must never panic, and it must deliver exactly the bodies the wire doc
// allows and refuse every other: one minimal uvarint vertex count that an int
// holds (never wrapped negative), and no byte after it. Seeded from the golden
// info frames of an adjacency and a distance server, with and without a
// trailing byte, a non-minimal and a truncated count, and the edges of the
// uvarint range.
func FuzzDeliverInfo(f *testing.F) {
	adjSrv := NewServer(testEngine(f, 500, 7), 0)
	distSrv := NewServer(nil, 0)
	distSrv.SetDistEngine(testDistEngines(f, 400, 3)["pll"])
	for _, srv := range []*Server{adjSrv, distSrv} {
		body := goldenFrame(srv, []byte{opInfo})[1:]
		f.Add(body)
		f.Add(append(slices.Clone(body), 0x01)) // the capability word older servers sent
	}
	f.Add([]byte{0x80, 0x00}) // 0, not minimal
	f.Add([]byte{0x80})       // truncated
	f.Add(appendInfo(nil, 0)[1:])
	f.Add(binary.AppendUvarint(nil, math.MaxInt64))  // the largest count an int holds
	f.Add(binary.AppendUvarint(nil, math.MaxUint64)) // past it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		n := -1 // a stale value a delivery must overwrite
		err := deliverInfo(&call{infoN: &n}, body)
		wantN, k := binary.Uvarint(body)
		if k <= 0 || wantN > math.MaxInt || k != len(body) || !slices.Equal(binary.AppendUvarint(nil, wantN), body) {
			if err == nil {
				t.Fatalf("body %x: accepted, n = %d", body, n)
			}
			return
		}
		if err != nil {
			t.Fatalf("body %x: refused the count %d: %v", body, wantN, err)
		}
		if uint64(n) != wantN {
			t.Fatalf("body %x: delivered n = %d, want %d", body, n, wantN)
		}
	})
}
