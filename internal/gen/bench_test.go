package gen_test

// Generation-pipeline benchmarks (the BenchmarkGen prefix is the CI
// generation smoke target): the sequential seed path against the sharded
// samplers and the two-pass EdgeBuilder, plus the parallel edge-list I/O.
// EXPERIMENTS.md E22 has the committed 1M-vertex table.

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

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

func benchGenRead(b *testing.B) {
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
		got, err := graph.ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if got.M() != g.M() {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGenReadEdgeListSeq(b *testing.B) { benchGenRead(b) }
