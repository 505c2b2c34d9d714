package adjserve

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/obs"
)

// traceBlock builds a response trace block by hand: the stage count, then
// per stage its id, hop and raw uvarint nanoseconds — including values no
// honest sender produces.
func traceBlock(count uint64, stages ...obs.TraceStage) []byte {
	b := binary.AppendUvarint(nil, count)
	for _, s := range stages {
		b = binary.AppendUvarint(append(b, s.Stage, s.Hop), uint64(s.Ns))
	}
	return b
}

// TestParseTraceBlockRows pins what parseTraceBlock accepts from a peer:
// well-formed blocks merge with the sender's own stages relabelled to the
// receiving hop; truncated, trailing and out-of-range blocks are refused
// whole with errMalformedTrace.
func TestParseTraceBlockRows(t *testing.T) {
	probe := func(hop uint8, ns int64) obs.TraceStage {
		return obs.TraceStage{Stage: obs.StageProbe, Hop: hop, Ns: ns}
	}
	queue := obs.TraceStage{Stage: obs.StageQueue, Hop: obs.HopSelf, Ns: 1500}
	for _, row := range []struct {
		name  string
		block []byte
		want  []obs.TraceStage // nil: refused
	}{
		{"empty block", traceBlock(0), []obs.TraceStage{}},
		{"own stages relabelled, shard stages kept", traceBlock(2, queue, probe(2, 7)),
			[]obs.TraceStage{{Stage: obs.StageQueue, Hop: obs.HopPeer, Ns: 1500}, probe(2, 7)}},
		{"largest duration", traceBlock(1, probe(obs.HopSelf, 1<<63-1)), []obs.TraceStage{probe(obs.HopPeer, 1<<63-1)}},
		{"no count", nil, nil},
		{"fewer stages than counted", traceBlock(2, queue), nil},
		{"stage cut after its id", append(traceBlock(1), obs.StageProbe), nil},
		{"duration cut", append(traceBlock(1), obs.StageProbe, obs.HopSelf, 0x80), nil},
		{"trailing byte", append(traceBlock(1, queue), 0), nil},
		// 2^63 and above read back as a negative int64: a lying peer must not
		// land a negative duration in the caller's tally.
		{"duration 2^63", traceBlock(1, probe(obs.HopSelf, -1<<63)), nil},
		{"duration 2^64-1", traceBlock(1, probe(obs.HopSelf, -1)), nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			var tally obs.SpanTally
			err := parseTraceBlock(row.block, &tally, obs.HopPeer)
			if row.want == nil {
				if !errors.Is(err, errMalformedTrace) {
					t.Fatalf("block %x: err %v, want errMalformedTrace", row.block, err)
				}
				return
			}
			if err != nil || !slices.Equal(tally.Stages(), row.want) {
				t.Fatalf("block %x: stages %v, %v; want %v", row.block, tally.Stages(), err, row.want)
			}
		})
	}
}

// FuzzParseTraceBlock feeds parseTraceBlock arbitrary trace blocks, seeded
// from the blocks behind the golden traced frames. It must never panic, no
// stage it accepts may carry a negative duration, and a block of at most
// obs.TraceMaxStages stages accepted at HopSelf (no relabelling) must
// re-encode through appendTraceTally to a block that parses to the same
// stages.
func FuzzParseTraceBlock(f *testing.F) {
	frames, _ := goldenTracedFrames(f)
	for _, fr := range frames {
		f.Add(fr.resp[len(fr.want):])
	}
	f.Add([]byte{})
	f.Add(traceBlock(1, obs.TraceStage{Stage: obs.StageProbe, Hop: obs.HopSelf, Ns: -1}))
	f.Fuzz(func(t *testing.T, block []byte) {
		var got obs.SpanTally
		if parseTraceBlock(block, &got, obs.HopSelf) != nil {
			return
		}
		for _, s := range got.Stages() {
			if s.Ns < 0 {
				t.Fatalf("block %x: accepted stage %+v", block, s)
			}
		}
		if count, _ := binary.Uvarint(block); count > obs.TraceMaxStages {
			return // the tally kept only the first TraceMaxStages
		}
		again := appendTraceTally(nil, &got)
		var back obs.SpanTally
		if err := parseTraceBlock(again, &back, obs.HopSelf); err != nil {
			t.Fatalf("block %x accepted, its re-encoding %x refused: %v", block, again, err)
		}
		if !slices.Equal(back.Stages(), got.Stages()) {
			t.Fatalf("block %x parses to %v, its re-encoding %x to %v", block, got.Stages(), again, back.Stages())
		}
	})
}
