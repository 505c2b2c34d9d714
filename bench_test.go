package repro

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/powerlaw"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

// ---------------------------------------------------------------------------
// Micro-benchmarks: encoder throughput and per-query decode latency for each
// scheme on a shared power-law workload.
// ---------------------------------------------------------------------------

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkEncodePowerLaw(b *testing.B) {
	g := benchGraph(b)
	s := core.NewPowerLawScheme(2.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodePowerLawParallel(b *testing.B) {
	g := benchGraph(b)
	s := core.NewPowerLawScheme(2.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncodeParallel(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSparse(b *testing.B) {
	g := benchGraph(b)
	s := core.NewSparseSchemeAuto()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeForest(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (forest.Scheme{}).Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeOneQuery(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (onequery.Scheme{Seed: 1}).Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

// queryPairs builds a deterministic query mix (half edges, half random).
func queryPairs(g *graph.Graph, count int) [][2]int {
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

func benchDecode(b *testing.B, s core.Scheme) {
	b.Helper()
	g := benchGraph(b)
	lab, err := s.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	pairs := queryPairs(g, 4096)
	b.ReportMetric(float64(lab.Stats().Max), "maxlabelbits")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := lab.Adjacent(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePowerLaw(b *testing.B) { benchDecode(b, core.NewPowerLawScheme(2.5)) }
func BenchmarkDecodeSparse(b *testing.B)   { benchDecode(b, core.NewSparseSchemeAuto()) }
func BenchmarkDecodeForest(b *testing.B)   { benchDecode(b, forest.Scheme{}) }
func BenchmarkDecodeNeighborList(b *testing.B) {
	benchDecode(b, baseline.NeighborList{})
}

func BenchmarkDecodeOneQuery(b *testing.B) {
	g := benchGraph(b)
	enc, err := (onequery.Scheme{Seed: 1}).Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	pairs := queryPairs(g, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := enc.Adjacent(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkZeta(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := powerlaw.Zeta(2.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFKSBuild(b *testing.B) {
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 99
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashing.Build(keys, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChungLuGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.ChungLuPowerLaw(1<<14, 2.5, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Generation-pipeline benchmarks (the BenchmarkGen prefix is the CI
// generation smoke target): sequential seed path vs sharded samplers +
// two-pass EdgeBuilder, plus the parallel edge-list I/O. See EXPERIMENTS.md
// E22 for the committed 1M-vertex table.
// ---------------------------------------------------------------------------

// genBenchN is the default workload size; override with GEN_BENCH_N (the
// EXPERIMENTS.md E22 table uses GEN_BENCH_N=1000000).
const genBenchN = 1 << 17

func genBenchSize(b *testing.B) int {
	b.Helper()
	if s := os.Getenv("GEN_BENCH_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("GEN_BENCH_N: %v", err)
		}
		return n
	}
	return genBenchN
}

func genBenchWeights(b *testing.B) []float64 {
	b.Helper()
	w, err := gen.PowerLawWeights(genBenchSize(b), 2.5, 2)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkGenChungLuSeq is the sequential seed path: single-stream
// sampler into the incremental Builder-backed CSR (via gen.ChungLu).
func BenchmarkGenChungLuSeq(b *testing.B) {
	w := genBenchWeights(b)
	b.ReportAllocs()
	b.ResetTimer()
	var m int
	for i := 0; i < b.N; i++ {
		m = gen.ChungLu(w, 1).M()
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func benchGenChungLuParallel(b *testing.B, workers int) {
	w := genBenchWeights(b)
	b.ReportAllocs()
	b.ResetTimer()
	var m int
	for i := 0; i < b.N; i++ {
		m = gen.ChungLuParallel(w, 1, workers).M()
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenChungLuParallel1(b *testing.B) { benchGenChungLuParallel(b, 1) }
func BenchmarkGenChungLuParallel4(b *testing.B) { benchGenChungLuParallel(b, 4) }
func BenchmarkGenChungLuParallel8(b *testing.B) { benchGenChungLuParallel(b, 8) }

// genBenchEdges samples one fixed Chung–Lu edge set for the builder
// benchmarks.
func genBenchEdges(b *testing.B) (int, []graph.Edge) {
	b.Helper()
	g := gen.ChungLuParallel(genBenchWeights(b), 1, 1)
	edges := make([]graph.Edge, 0, g.M())
	g.Edges(func(u, v int) { edges = append(edges, graph.Edge{U: int32(u), V: int32(v)}) })
	return g.N(), edges
}

// BenchmarkGenBuilderBuild is the seed CSR path: per-vertex append slices
// plus per-vertex sort at Build.
func BenchmarkGenBuilderBuild(b *testing.B) {
	n, edges := genBenchEdges(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := graph.NewBuilder(n)
		for _, e := range edges {
			if err := bld.AddEdge(int(e.U), int(e.V)); err != nil {
				b.Fatal(err)
			}
		}
		if bld.Build().M() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func benchGenEdgeBuilderBuild(b *testing.B, workers int) {
	n, edges := genBenchEdges(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb := graph.NewEdgeBuilder(n, 1)
		eb.Shard(0).AddEdges(edges)
		if eb.Build(workers).M() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenEdgeBuilderBuild1(b *testing.B) { benchGenEdgeBuilderBuild(b, 1) }
func BenchmarkGenEdgeBuilderBuild4(b *testing.B) { benchGenEdgeBuilderBuild(b, 4) }
func BenchmarkGenEdgeBuilderBuild8(b *testing.B) { benchGenEdgeBuilderBuild(b, 8) }

func benchGenWrite(b *testing.B, workers int) {
	g, err := gen.ChungLuPowerLaw(genBenchSize(b), 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteEdgeListParallel(io.Discard, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenWriteEdgeListSeq(b *testing.B)       { benchGenWrite(b, 1) }
func BenchmarkGenWriteEdgeListParallel4(b *testing.B) { benchGenWrite(b, 4) }

func benchGenRead(b *testing.B, workers int) {
	g, err := gen.ChungLuPowerLaw(genBenchSize(b), 2.5, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := graph.ReadEdgeListParallel(bytes.NewReader(data), workers)
		if err != nil {
			b.Fatal(err)
		}
		if got.M() != g.M() {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenReadEdgeListSeq(b *testing.B)       { benchGenRead(b, 1) }
func BenchmarkGenReadEdgeListParallel4(b *testing.B) { benchGenRead(b, 4) }

func BenchmarkBAGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.BarabasiAlbert(1<<14, 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlEmbed(b *testing.B) {
	p, err := powerlaw.NewParams(2.5, 1<<13)
	if err != nil {
		b.Fatal(err)
	}
	h := gen.ErdosRenyi(p.I1, 0.5, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.PlEmbed(p, h); err != nil {
			b.Fatal(err)
		}
	}
}
