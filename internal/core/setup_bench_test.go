package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The set-up path's core rows, at n = 2^16: what the benchmark's setup_s
// spends in this package before a store file exists. CI holds their B/op
// under a ceiling (scripts/alloc_ceiling_gate.sh): bytes allocated are bytes
// zeroed, and zeroing throw-away tables was a third of set-up CPU once.

func setupBenchGraph(b *testing.B) (*graph.Graph, *FatThinScheme) {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(1<<16, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := NewPowerLawScheme(2.5)
	return g, s
}

func BenchmarkSetupEncodeParallel(b *testing.B) {
	g, s := setupBenchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncodeParallel(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSetupShardLabelArenas(b *testing.B) {
	g, s := setupBenchGraph(b)
	lab, err := s.EncodeParallel(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ShardLabelArenas(slab, lab.BitLens(), order, 3, ShardRange); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEngineBuild times the engine build — the one header walk that
// holds a slab to its contract — over the two slabs a server opens: the whole
// degree-ordered slab, and shard 1 of a 3-way range split, most of whose
// labels are absent.
func BenchmarkQueryEngineBuild(b *testing.B) {
	g, s := setupBenchGraph(b)
	lab, err := s.EncodeParallel(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	arenas, err := ShardLabelArenas(slab, lab.BitLens(), order, 3, ShardRange)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		slab    []byte
		bitLens []int
	}{
		{"whole", slab, lab.BitLens()},
		{"shard1of3", arenas[1].Slab, arenas[1].BitLens},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewQueryEngineFromPermutedArena(tc.slab, tc.bitLens, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
