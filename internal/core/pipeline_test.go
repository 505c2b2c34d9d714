package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// equivGraphs is the cross-encoder test corpus: seeded Chung–Lu power-law
// graphs plus adversarial shapes (all-fat, all-thin, empty, hub-only,
// bipartite) that stress the fat/thin split from both sides.
func equivGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	cl1, err := gen.ChungLuPowerLaw(600, 2.2, 2, 1)
	if err != nil {
		t.Fatalf("chunglu: %v", err)
	}
	cl2, err := gen.ChungLuPowerLaw(900, 2.8, 2, 7)
	if err != nil {
		t.Fatalf("chunglu: %v", err)
	}
	return map[string]*graph.Graph{
		"chunglu-a2.2": cl1,
		"chunglu-a2.8": cl2,
		"empty":        graph.Empty(64),
		"path":         gen.Path(257),
		"star":         gen.Star(300),
		"clique":       gen.Complete(65),
		"bipartite":    gen.CompleteBipartite(9, 120),
		"er":           gen.ErdosRenyi(400, 0.02, 3),
		"two":          gen.Path(2),
		"single":       graph.Empty(1),
		"none":         graph.Empty(0),
	}
}

// equivSchemes builds the scheme matrix of the equivalence property test:
// sparse, power-law and fixed-threshold rules, each encoded by the slab
// pipeline and compared against the legacy encoder.
func equivSchemes() []*FatThinScheme {
	return []*FatThinScheme{
		NewSparseSchemeAuto(),
		NewSparseScheme(2),
		NewPowerLawSchemePractical(2.5),
		NewFixedThresholdScheme(1),
		NewFixedThresholdScheme(4),
		NewFixedThresholdScheme(1 << 20), // all thin
	}
}

func requireLabelsEqual(t *testing.T, want, got *Labeling) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N: legacy %d, pipeline %d", want.N(), got.N())
	}
	for v := 0; v < want.N(); v++ {
		lw, err := want.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := got.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		if !lw.Equal(lg) {
			t.Fatalf("label %d differs:\nlegacy   %v\npipeline %v", v, lw, lg)
		}
	}
}

// TestPipelineMatchesLegacyFatThin is the cross-encoder equivalence
// property: over every (scheme, graph, thin edges, workers) cell,
// slab-pipeline labels are bit-for-bit Equal to legacy-encoder labels
// vertex-by-vertex, in identifier order. What the engine answers over them is
// the conformance matrix's.
func TestPipelineMatchesLegacyFatThin(t *testing.T) {
	graphs := equivGraphs(t)
	for _, s := range equivSchemes() {
		for gname, g := range graphs {
			t.Run(fmt.Sprintf("%s/%s", s.Name(), gname), func(t *testing.T) {
				tau, err := s.Threshold(g)
				if err != nil {
					t.Fatalf("threshold: %v", err)
				}
				for _, thin := range []ThinEdges{ThinEdgesOnce, ThinEdgesBoth} {
					legacy, err := encodeFatThinLegacy(s.Name(), g, tau, thin)
					if err != nil {
						t.Fatalf("legacy encode: %v", err)
					}
					for _, workers := range []int{1, 3, 0} {
						pipe, err := encodeFatThinSlab(s.Name(), g, tau, workers, thin)
						if err != nil {
							t.Fatalf("pipeline encode (thin=%d workers=%d): %v", thin, workers, err)
						}
						requireLabelsEqual(t, legacy, pipe)
						requireIdentifierOrder(t, pipe)
					}
					s.SetThinEdges(thin)
					pipe, err := s.Encode(g)
					if err != nil {
						t.Fatalf("Encode: %v", err)
					}
					requireLabelsEqual(t, legacy, pipe)
				}
			})
		}
	}
}

// TestPipelineMatchesLegacyCompressed is the same property for the δ-gap
// compressed scheme (variable-length thin bodies exercise the size plan's
// exactness: any mispriced label would shift every later offset).
func TestPipelineMatchesLegacyCompressed(t *testing.T) {
	graphs := equivGraphs(t)
	for _, inner := range []*FatThinScheme{NewSparseSchemeAuto(), NewFixedThresholdScheme(6)} {
		s := NewCompressedScheme(inner)
		for gname, g := range graphs {
			t.Run(fmt.Sprintf("%s/%s", s.Name(), gname), func(t *testing.T) {
				tau, err := s.Threshold(g)
				if err != nil {
					t.Fatalf("threshold: %v", err)
				}
				legacy, err := encodeCompressedLegacy(s.Name(), g, tau)
				if err != nil {
					t.Fatalf("legacy encode: %v", err)
				}
				for _, workers := range []int{1, 4} {
					pipe, err := encodeCompressedSlab(s.Name(), g, tau, workers)
					if err != nil {
						t.Fatalf("pipeline encode (workers=%d): %v", workers, err)
					}
					requireLabelsEqual(t, legacy, pipe)
					if _, order, _ := pipe.ArenaLayout(); order != nil {
						t.Fatalf("workers=%d: compressed slab has an order", workers)
					}
				}
				// The compressed decoder reads the first thin label, so the
				// scheme always writes the paper's lists, whatever the wrapped
				// threshold rule was told.
				for _, thin := range []ThinEdges{ThinEdgesOnce, ThinEdgesBoth} {
					inner.SetThinEdges(thin)
					pipe, err := s.Encode(g)
					if err != nil {
						t.Fatalf("Encode: %v", err)
					}
					requireLabelsEqual(t, legacy, pipe)
					if err := pipe.Verify(g); err != nil {
						t.Fatalf("pipeline compressed labeling fails verification: %v", err)
					}
				}
			})
		}
	}
}

// TestThinEdgesOnceListsSmallerIdentifiers reads the once layout off the
// labels themselves: a thin body is strictly ascending and never holds an
// identifier at or above its own, and over the whole labeling every edge with
// a thin endpoint is listed exactly once (m minus the fat–fat edges, which
// live in the bitmaps) — against twice the thin–thin edges plus once the
// fat–thin ones under ThinEdgesBoth.
func TestThinEdgesOnceListsSmallerIdentifiers(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(1200, 2.3, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPowerLawSchemePractical(2.5)
	tau, err := s.Threshold(g)
	if err != nil {
		t.Fatal(err)
	}
	fatFat, thinThin := 0, 0
	g.Edges(func(u, v int) {
		switch fu, fv := g.Degree(u) >= tau, g.Degree(v) >= tau; {
		case fu && fv:
			fatFat++
		case !fu && !fv:
			thinThin++
		}
	})
	if fatFat == 0 || thinThin == 0 {
		t.Fatalf("test graph has %d fat–fat and %d thin–thin edges, want some of each", fatFat, thinThin)
	}
	w := bitstr.WidthFor(uint64(g.N()))
	for thin, want := range map[ThinEdges]int{ThinEdgesOnce: g.M() - fatFat, ThinEdgesBoth: g.M() - fatFat + thinThin} {
		s.SetThinEdges(thin)
		lab, err := s.EncodeParallel(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		entries := 0
		for v := 0; v < g.N(); v++ {
			l, err := lab.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			if l.MustPeekUint(0, 1) == 1 {
				continue
			}
			own, prev := l.MustPeekUint(1, w), uint64(0)
			for at := 1 + w; at < l.Len(); at += w {
				x := l.MustPeekUint(at, w)
				if at > 1+w && x <= prev {
					t.Fatalf("thin edges %d: label %d lists %d after %d", thin, v, x, prev)
				}
				if thin == ThinEdgesOnce && x >= own {
					t.Fatalf("once-layout label %d (identifier %d) lists %d", v, own, x)
				}
				prev = x
				entries++
			}
		}
		if entries != want {
			t.Fatalf("thin edges %d: %d entries stored, want %d (m = %d, fat–fat %d, thin–thin %d)",
				thin, entries, want, g.M(), fatFat, thinThin)
		}
	}
}

// TestPipelineLabelingBornCompact asserts the arena contract: a
// pipeline-built labeling exposes its slab and NewQueryEngine adopts it
// zero-copy — the engine's probe arena is the very same backing array, not a
// relocated copy.
func TestPipelineLabelingBornCompact(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(2000, 2.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewPowerLawSchemePractical(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, _, _ := lab.ArenaLayout()
	if len(slab) == 0 {
		t.Fatal("pipeline labeling has an empty slab")
	}
	eng, err := NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	if &eng.slab[0] != &slab[0] {
		t.Fatal("NewQueryEngine relocated the arena instead of adopting it zero-copy")
	}
	if err := lab.Verify(g); err != nil {
		t.Fatalf("arena labeling fails verification: %v", err)
	}
}

// TestLabelingViewsOnDemand: a labeling keeps no per-label table — a Label
// call allocates nothing and costs no memory up front — and a pipeline
// labeling answers N, BitLens, Label and Stats exactly as the label-by-label
// labeling of the same graph does.
func TestLabelingViewsOnDemand(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(3000, 2.5, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPowerLawSchemePractical(2.5)
	tau, err := s.Threshold(g)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := encodeFatThinLegacy(s.Name(), g, tau, ThinEdgesOnce)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := encodeFatThinSlab(s.Name(), g, tau, 2, ThinEdgesOnce)
	if err != nil {
		t.Fatal(err)
	}
	if lab.N() != legacy.N() || lab.Stats() != legacy.Stats() {
		t.Fatalf("N %d / %d, Stats %+v / %+v", lab.N(), legacy.N(), lab.Stats(), legacy.Stats())
	}
	if !slices.Equal(lab.BitLens(), legacy.BitLens()) {
		t.Fatal("BitLens differ from the legacy labeling's")
	}
	for v := 0; v < g.N(); v++ {
		got, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := legacy.Label(v); !got.Equal(want) {
			t.Fatalf("label %d differs from the legacy labeling's", v)
		}
	}
	if _, err := lab.Label(g.N()); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("Label(n) err = %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { lab.Label(1234) }); allocs != 0 {
		t.Errorf("Label allocates %v objects per call", allocs)
	}
}

// TestEncodeSlabEdgeCases pins encodeSlab's edges through all four encoders:
// n = 0 (no size or fill range at all — fat/thin and compressed return an
// empty labeling, the two distance encoders refuse), n = 1, and more workers
// than labels, whose slab must be byte-identical to a one-worker encode.
func TestEncodeSlabEdgeCases(t *testing.T) {
	type arena struct {
		slab    []byte
		bitLens []int
	}
	encoders := map[string]func(n, workers int) (arena, error){
		"fatthin": func(n, workers int) (arena, error) {
			lab, err := encodeFatThinSlab("x", gen.Path(n), 2, workers, ThinEdgesOnce)
			if err != nil {
				return arena{}, err
			}
			return arena{lab.slab, lab.bitLens}, nil
		},
		"compressed": func(n, workers int) (arena, error) {
			lab, err := encodeCompressedSlab("x", gen.Path(n), 2, workers)
			if err != nil {
				return arena{}, err
			}
			return arena{lab.slab, lab.bitLens}, nil
		},
		"pll": func(n, workers int) (arena, error) {
			entries := make([][]DistEntry, n)
			for v := range entries { // hub 0, then v itself
				entries[v] = []DistEntry{{ID: 0, D: int32(v)}}
				if v > 0 {
					entries[v] = append(entries[v], DistEntry{ID: int32(v), D: 0})
				}
			}
			a, err := EncodePLLArena(entries, int32(max(n, 1)), nil, workers)
			if err != nil {
				return arena{}, err
			}
			return arena{a.Slab, a.BitLens}, nil
		},
		"bdist": func(n, workers int) (arena, error) {
			fat, fatDist, thin := make([]bool, n), make([][]int32, n), make([][]DistEntry, n)
			for v := range fatDist {
				fatDist[v] = []int32{3}
				if v > 0 {
					thin[v] = []DistEntry{{ID: int32(v - 1), D: 1}}
				}
			}
			a, err := EncodeBoundedArena(fat, fatDist, thin, 2, nil, workers)
			if err != nil {
				return arena{}, err
			}
			return arena{a.Slab, a.BitLens}, nil
		},
	}
	for name, encode := range encoders {
		empty, err := encode(0, 4)
		if refuses := name == "pll" || name == "bdist"; refuses != (err != nil) {
			t.Errorf("%s, n = 0: err = %v, want refused = %v", name, err, refuses)
		}
		if len(empty.slab) != 0 || len(empty.bitLens) != 0 {
			t.Errorf("%s, n = 0: %d-byte slab over %d labels", name, len(empty.slab), len(empty.bitLens))
		}
		for _, n := range []int{1, 5} {
			want, err := encode(n, 1)
			if err != nil || len(want.bitLens) != n {
				t.Fatalf("%s, n = %d: %d labels, err = %v", name, n, len(want.bitLens), err)
			}
			got, err := encode(n, 3*n+1)
			if err != nil || !slices.Equal(got.bitLens, want.bitLens) || !slices.Equal(got.slab, want.slab) {
				t.Errorf("%s, n = %d, %d workers: slab or lengths differ from one worker's (err = %v)", name, n, 3*n+1, err)
			}
		}
	}
}

// TestSplitByWords checks the word-balanced range partitioner covers all
// vertices exactly once, in order.
func TestSplitByWords(t *testing.T) {
	offs := []int64{0, 64, 64 * 40, 64 * 41, 64 * 42, 64 * 43, 64 * 100}
	for workers := 1; workers <= 8; workers++ {
		ranges := splitByWords(offs, workers)
		next := 0
		for _, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("workers=%d: bad ranges %v", workers, ranges)
			}
			next = r[1]
		}
		if next != len(offs)-1 {
			t.Fatalf("workers=%d: ranges %v do not cover %d vertices", workers, ranges, len(offs)-1)
		}
	}
}

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkEncodeLegacy is the pre-pipeline baseline: one Builder-built
// label per vertex.
func BenchmarkEncodeLegacy(b *testing.B) {
	g := benchGraph(b, 100_000)
	s := NewPowerLawSchemePractical(2.5)
	tau, err := s.Threshold(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFatThinLegacy(s.Name(), g, tau, ThinEdgesOnce); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePipeline measures the sequential slab pipeline on the same
// 100k-vertex Chung–Lu graph (acceptance: ≥2x BenchmarkEncodeLegacy).
func BenchmarkEncodePipeline(b *testing.B) {
	g := benchGraph(b, 100_000)
	s := NewPowerLawSchemePractical(2.5)
	tau, err := s.Threshold(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFatThinSlab(s.Name(), g, tau, 1, ThinEdgesOnce); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePipelineParallel is the sharded fill (GOMAXPROCS workers).
func BenchmarkEncodePipelineParallel(b *testing.B) {
	g := benchGraph(b, 100_000)
	s := NewPowerLawSchemePractical(2.5)
	tau, err := s.Threshold(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFatThinSlab(s.Name(), g, tau, 0, ThinEdgesOnce); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePipelineFill isolates phase 2 (the per-vertex fill): plan
// once, fill b.N times. The per-iteration allocation count divided by the
// vertex count is the "allocs per vertex" figure — the pipeline target is
// ~0 (only the per-range scratch buffers remain).
func BenchmarkEncodePipelineFill(b *testing.B) {
	g := benchGraph(b, 100_000)
	s := NewPowerLawSchemePractical(2.5)
	tau, err := s.Threshold(g)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	w := 17 // ceil(log2 100000)
	header := 1 + w
	plan := newSlabPlan(g, tau, w)
	id, k := plan.id, int32(plan.k)
	a, err := encodeSlab(n, 1, nil, func(bitLens []int, lo, hi int) error {
		for v := lo; v < hi; v++ {
			if id[v] < k {
				bitLens[v] = header + plan.k
			} else {
				bitLens[v] = header + g.Degree(v)*w
			}
		}
		return nil
	}, func(*slabArena, *bitstr.SlabWriter, int, int) {})
	if err != nil {
		b.Fatal(err)
	}
	sw := bitstr.NewSlabWriter(a.slab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillFatThinSlab(plan, g, a, sw, 0, n)
	}
}

// BenchmarkEncodeCompressedLegacy / Pipeline: the δ-gap scheme pair.
func BenchmarkEncodeCompressedLegacy(b *testing.B) {
	g := benchGraph(b, 100_000)
	s := NewCompressedScheme(NewPowerLawSchemePractical(2.5))
	tau, err := s.Threshold(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeCompressedLegacy(s.Name(), g, tau); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCompressedPipeline(b *testing.B) {
	g := benchGraph(b, 100_000)
	s := NewCompressedScheme(NewPowerLawSchemePractical(2.5))
	tau, err := s.Threshold(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeCompressedSlab(s.Name(), g, tau, 0); err != nil {
			b.Fatal(err)
		}
	}
}
