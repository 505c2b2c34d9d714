package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
)

// QueryEngine benchmarks. CI's zero-alloc gate (scripts/zero_alloc_gate.sh)
// holds BenchmarkQueryEngineAdjacent, BenchmarkQueryEngineAdjacentMany,
// BenchmarkQueryEngineAdjacentManySharded and
// BenchmarkQueryEngineAdjacentManyInstrumented at 0 allocs/op;
// BenchmarkQueryEngineColdSlab is the in-process kernel-vs-scalar instrument
// at n = 2^20.

// benchEngine builds the zero-allocation query engine over the Theorem 4
// labeling of a 2^14-vertex power-law graph, with a deterministic query mix:
// half edges, half random pairs.
func benchEngine(b *testing.B) (*core.QueryEngine, [][2]int) {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewQueryEngine(lab)
	if err != nil {
		b.Fatal(err)
	}
	return eng, benchPairs(g, 4096)
}

func benchPairs(g *graph.Graph, count int) [][2]int {
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]int, 0, count)
	budget := count / 2
	g.Edges(func(u, v int) {
		if budget > 0 {
			pairs = append(pairs, [2]int{u, v})
			budget--
		}
	})
	for len(pairs) < count {
		pairs = append(pairs, [2]int{rng.Intn(g.N()), rng.Intn(g.N())})
	}
	return pairs
}

// BenchmarkQueryEngineAdjacent must report 0 allocs/op: the engine's hot
// path is pure word-addressed probes into the arena slab.
func BenchmarkQueryEngineAdjacent(b *testing.B) {
	eng, pairs := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := eng.Adjacent(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEngineAdjacentManyInstrumented is the same batch with a live
// core.EngineMetrics attached: the tally-and-flush design must keep the path
// at 0 allocs/op, with the per-batch atomic flush amortized to noise.
func BenchmarkQueryEngineAdjacentManyInstrumented(b *testing.B) {
	eng, pairs := benchEngine(b)
	var em core.EngineMetrics
	eng.AttachMetrics(&em)
	out := make([]bool, 0, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = eng.AdjacentMany(pairs, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
	if got := em.Queries.Load(); got != int64(b.N*len(pairs)) {
		b.Fatalf("metrics counted %d queries, drove %d", got, b.N*len(pairs))
	}
}

// BenchmarkQueryEngineAdjacentMany answers the whole 4096-pair batch per
// iteration into a reused result slice — also 0 allocs/op.
func BenchmarkQueryEngineAdjacentMany(b *testing.B) {
	eng, pairs := benchEngine(b)
	out := make([]bool, 0, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = eng.AdjacentMany(pairs, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
}

// BenchmarkQueryEngineAdjacentManySharded is BenchmarkQueryEngineAdjacentMany
// on one shard: the middle of three range shards of the same labeling, over
// 4096 pairs of the same mix that the shard answers (its owned range's thin
// holders, fat–fat and self pairs) — the sub-batch a router sends it, through
// the residency test of the batch kernel. Also 0 allocs/op.
func BenchmarkQueryEngineAdjacentManySharded(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewPowerLawScheme(2.5)
	lab, err := s.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	slab, order, _ := lab.ArenaLayout()
	arenas, err := core.ShardLabelArenas(slab, lab.BitLens(), order, 3, core.ShardRange)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewQueryEngineFromPermutedArena(arenas[1].Slab, arenas[1].BitLens, order)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.SetShard(core.ShardMap{Count: 3, Index: 1, Fn: core.ShardRange}); err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]int, 0, 4096)
	for _, p := range benchPairs(g, 4*4096) {
		if _, err := eng.Adjacent(p[0], p[1]); err == nil && len(pairs) < cap(pairs) {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) < cap(pairs) {
		b.Fatalf("shard 1/3 answers %d pairs of the mix, want %d", len(pairs), cap(pairs))
	}
	out := make([]bool, 0, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = eng.AdjacentMany(pairs, out[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/query")
}

// BenchmarkQueryEngineColdSlab measures the batch probe kernel against the
// scalar loop where the kernel earns its keep: n = 2^20, a 16 MB header table
// and an 18 MB degree-ordered slab, probe rings of 2^21 pairs that outlast the
// private caches. The ring is walked in 32 Ki-pair chunks, even chunks through
// per-pair Adjacent and odd chunks through AdjacentMany, so both sides sample
// the same minutes of the host's memory mood (it drifts 30 % between minutes;
// back-to-back whole-ring runs are unreadable) and neither probes lines the
// other just pulled in. Reports ns/pair for each side, their ratio, and the
// share of thin probes the header record answered without a slab read.
func BenchmarkQueryEngineColdSlab(b *testing.B) {
	g, err := gen.ChungLuPowerLawParallel(1<<20, 2.5, 2, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewPowerLawScheme(2.5)
	lab, err := s.EncodeParallel(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewQueryEngine(lab)
	if err != nil {
		b.Fatal(err)
	}
	const ringPairs, chunk = 1 << 21, 32 << 10
	for _, dist := range []experiments.ProbeDist{experiments.DistUniform, experiments.DistDegProp} {
		b.Run(string(dist), func(b *testing.B) {
			ps, err := experiments.NewProbeSampler(g, dist, 0, 8)
			if err != nil {
				b.Fatal(err)
			}
			ring := ps.Pairs(make([][2]int, 0, ringPairs), ringPairs)
			out := make([]bool, 0, chunk)
			var scalar, kernel time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < ringPairs; off += 2 * chunk {
					t0 := time.Now()
					for _, p := range ring[off : off+chunk] {
						if _, err := eng.Adjacent(p[0], p[1]); err != nil {
							b.Fatal(err)
						}
					}
					t1 := time.Now()
					if out, err = eng.AdjacentMany(ring[off+chunk:off+2*chunk], out[:0]); err != nil {
						b.Fatal(err)
					}
					scalar += t1.Sub(t0)
					kernel += time.Since(t1)
				}
			}
			half := float64(b.N) * ringPairs / 2
			b.ReportMetric(float64(scalar.Nanoseconds())/half, "scalar-ns/pair")
			b.ReportMetric(float64(kernel.Nanoseconds())/half, "kernel-ns/pair")
			b.ReportMetric(float64(scalar)/float64(kernel), "scalar/kernel")
			// One untimed pass with metrics attached: a count, not a timing.
			b.StopTimer()
			var em core.EngineMetrics
			eng.AttachMetrics(&em)
			defer eng.AttachMetrics(nil)
			if _, err := eng.AdjacentMany(ring, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(em.ThinInline.Load())/float64(em.ThinBranch.Load()), "inline/thin")
		})
	}
}
