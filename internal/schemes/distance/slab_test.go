package distance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// slabTestGraphs returns the graph sweep the equivalence suite runs over:
// a power-law graph, a denser one, a sparse disconnected one, a ring, and
// degenerate sizes.
func slabTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cl, err := gen.ChungLuPowerLaw(300, 2.5, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := gen.ChungLuPowerLaw(150, 2.2, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := gen.ChungLuPowerLaw(200, 3.0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rb := graph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		rb.AddEdge(v, (v+1)%64)
	}
	tiny := graph.NewBuilder(2)
	tiny.AddEdge(0, 1)
	single := graph.NewBuilder(1)
	return map[string]*graph.Graph{
		"chunglu":  cl,
		"dense":    dense,
		"sparse":   sparse,
		"ring":     rb.Build(),
		"tiny":     tiny.Build(),
		"isolated": single.Build(),
	}
}

// TestDistEngineMatchesLegacyPLL pins DistEngine answers over the PLL slab,
// for every vertex pair across worker counts, to BFS and to the
// min-sum over the entry lists of the merge-based prune
// (pllEntriesMergePrune), the sweep as it was before the scatter table.
func TestDistEngineMatchesLegacyPLL(t *testing.T) {
	for name, g := range slabTestGraphs(t) {
		legacy, _, _ := pllEntriesMergePrune(g)
		for _, workers := range []int{1, 3} {
			eng, _ := encodePLL(t, g, workers)
			checkPLLExact(t, g, eng)
			for u := 0; u < g.N(); u++ {
				for v := 0; v < g.N(); v++ {
					if got, _ := eng.Dist(u, v); got != entriesDist(legacy, u, v) {
						t.Fatalf("%s w=%d: Dist(%d,%d) = %d, legacy entries %d",
							name, workers, u, v, got, entriesDist(legacy, u, v))
					}
				}
			}
		}
	}
}

// TestDistEngineMatchesLegacyBounded pins the bounded-distance engine to
// Decoder, Lemma 7's own decoder, reading the same slab labels in place, and
// both to BFS, across worker counts.
func TestDistEngineMatchesLegacyBounded(t *testing.T) {
	for _, g := range slabTestGraphs(t) {
		for _, f := range []int{2, 4} {
			for _, workers := range []int{1, 4} {
				checkBounded(t, g, encodeBounded(t, g, Scheme{Alpha: 2.5, F: f}, workers), f)
			}
		}
	}
}

// TestDistEngineBatchesMatchSingle pins DistMany to the single-query path.
func TestDistEngineBatchesMatchSingle(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(400, 2.5, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		arena func() (*core.DistArena, error)
	}{
		{"pll", func() (*core.DistArena, error) { return PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree) }},
		{"bdist", func() (*core.DistArena, error) {
			return Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, core.LayoutDegree)
		}},
	} {
		arena, err := tc.arena()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		eng, err := core.NewDistEngine(arena)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pairs := make([][2]int, 0, 4096)
		x := uint64(88172645463325252)
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			u := int(x % uint64(g.N()))
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			pairs = append(pairs, [2]int{u, int(x % uint64(g.N()))})
		}
		want := make([]int, len(pairs))
		for i, p := range pairs {
			if want[i], err = eng.Dist(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := eng.DistMany(pairs, nil)
		if err != nil {
			t.Fatalf("%s DistMany: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s DistMany: pair %d = %d, want %d", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestDistEngineZeroAlloc is the CI allocation gate: the single-query and
// batch distance paths must not allocate (asserted in non-race builds; CI's
// zero_alloc_gate.sh over BenchmarkDistEngine* asserts it again).
func TestDistEngineZeroAlloc(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(1000, 2.5, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		arena func() (*core.DistArena, error)
	}{
		{"pll", func() (*core.DistArena, error) { return PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree) }},
		{"bdist", func() (*core.DistArena, error) {
			return Scheme{Alpha: 2.5, F: 3}.EncodeArena(g, 0, core.LayoutDegree)
		}},
	} {
		arena, err := tc.arena()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewDistEngine(arena)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([][2]int, 512)
		for i := range pairs {
			pairs[i] = [2]int{(i * 37) % g.N(), (i * 101) % g.N()}
		}
		out := make([]int, 0, len(pairs))
		// Under the race detector sync.Pool drops puts at random, so a warm
		// scratch pool cannot be promised: the paths still run, unasserted.
		allocs := func(fn func()) float64 {
			if raceEnabled {
				fn()
				return 0
			}
			return testing.AllocsPerRun(10, fn)
		}
		if avg := allocs(func() {
			if _, err := eng.Dist(pairs[0][0], pairs[0][1]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: Dist allocates %.1f/op", tc.name, avg)
		}
		if avg := allocs(func() {
			if _, err := eng.DistMany(pairs, out[:0]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: DistMany allocates %.1f/op", tc.name, avg)
		}
	}
}

// benchDistEngine builds a PLL engine over a mid-size power-law graph.
func benchDistEngine(b *testing.B, kind string) (*core.DistEngine, [][2]int) {
	b.Helper()
	g, err := gen.ChungLuPowerLaw(1<<13, 2.5, 3, 17)
	if err != nil {
		b.Fatal(err)
	}
	var arena *core.DistArena
	switch kind {
	case "pll":
		arena, err = PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree)
	case "bdist":
		arena, err = Scheme{Alpha: 2.5, F: 4}.EncodeArena(g, 0, core.LayoutDegree)
	}
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]int, 4096)
	x := uint64(2463534242)
	for i := range pairs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := int(x % uint64(g.N()))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pairs[i] = [2]int{u, int(x % uint64(g.N()))}
	}
	return eng, pairs
}

// BenchmarkDistEngineDist measures the single-query hot path; CI asserts
// 0 B/op, 0 allocs/op.
func BenchmarkDistEngineDist(b *testing.B) {
	for _, kind := range []string{"pll", "bdist"} {
		b.Run(kind, func(b *testing.B) {
			eng, pairs := benchDistEngine(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i&4095]
				if _, err := eng.Dist(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistEngineDistMany measures the batch path at batch 4096; CI
// asserts 0 B/op, 0 allocs/op.
func BenchmarkDistEngineDistMany(b *testing.B) {
	for _, kind := range []string{"pll", "bdist"} {
		b.Run(kind, func(b *testing.B) {
			eng, pairs := benchDistEngine(b, kind)
			out := make([]int, 0, len(pairs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = eng.DistMany(pairs, out[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistEncodeArena measures the PLL slab-pipeline encode.
func BenchmarkDistEncodeArena(b *testing.B) {
	g, err := gen.ChungLuPowerLaw(1<<13, 2.5, 3, 17)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pll-arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (PLLScheme{}).EncodeArena(g, 0, core.LayoutDegree); err != nil {
				b.Fatal(err)
			}
		}
	})
}
