package adjserve

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/obs"
)

// FuzzDeliverAnswers feeds the client's answer decoder arbitrary pair-batch
// response bodies on both planes, for a pair count taken from the input,
// traced and untraced. It must never panic; any body it accepts must hold
// distances in [-1, 254] and decode to answers that re-encode, through
// answers.encode and followed by the same trace block, to a body it accepts
// with the same answers. Seeded from the golden OK frames of both planes,
// bare and with a trace block appended.
func FuzzDeliverAnswers(f *testing.F) {
	adjEng := testEngine(f, 500, 7)
	adjRing := goldenRing(adjEng, 4096)
	adjSrv := NewServer(adjEng, 0)
	distSrv := NewServer(nil, 0)
	distSrv.SetDistEngine(testDistEngines(f, 400, 3)["pll"])
	distRing := randomPairs(400, 256, 3)
	var tally obs.SpanTally
	tally.Add(obs.StageQueue, obs.HopSelf, 1500)
	tally.Add(obs.StageProbe, 2, 1<<40)
	trace := appendTraceTally(nil, &tally)
	for _, src := range []struct {
		srv  *Server
		op   byte
		ring [][2]int
	}{{adjSrv, opQuery, adjRing}, {distSrv, opDist, distRing}} {
		for _, count := range []int{0, 1, 31, 32, 33, len(src.ring)} {
			body := goldenFrame(src.srv, appendPairsReq(nil, src.op, src.ring[:count]))[1:]
			ints := src.op == opDist
			f.Add(body, ints, false, uint16(count))
			f.Add(append(slices.Clone(body), trace...), ints, true, uint16(count))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, ints, traced bool, count uint16) {
		deliver := func(body []byte) (answers, error) {
			ca := &call{tr: new(obs.SpanTally)}
			ca.ans = ca.ans.sized(ints, int(count))
			return ca.ans, deliverAnswers(ca, body, traced)
		}
		got, err := deliver(body)
		if err != nil {
			return
		}
		for i, d := range got.dist {
			if d < -1 || d > 254 {
				t.Fatalf("accepted distance %d of %d out of [-1, 254]: %d", i, count, d)
			}
		}
		// What followed the answers: the trace block of a traced body (an
		// untraced one accepts nothing after them).
		_, k := binary.Uvarint(body)
		block, _ := answers{}.sized(ints, int(count)).decode(body[k:])
		again := append(got.encode(binary.AppendUvarint(nil, uint64(count))), block...)
		back, err := deliver(again)
		if err != nil {
			t.Fatalf("accepted %x, refused its re-encoding %x: %v", body, again, err)
		}
		if !slices.Equal(back.adj, got.adj) || !slices.Equal(back.dist, got.dist) {
			t.Fatalf("body %x decodes to %v%v, its re-encoding %x to %v%v", body, got.adj, got.dist, again, back.adj, back.dist)
		}
	})
}
