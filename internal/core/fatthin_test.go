package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/powerlaw"
)

// testGraphs returns a battery of small named graphs that every scheme must
// label correctly.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	ba, err := gen.BarabasiAlbert(120, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gen.ChungLuPowerLaw(200, 2.5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"empty0":   graph.Empty(0),
		"single":   graph.Empty(1),
		"two-isol": graph.Empty(2),
		"edge":     gen.Path(2),
		"path10":   gen.Path(10),
		"cycle9":   gen.Cycle(9),
		"star50":   gen.Star(50),
		"K8":       gen.Complete(8),
		"K3x5":     gen.CompleteBipartite(3, 5),
		"grid5x5":  gen.Grid(5, 5),
		"er100":    gen.ErdosRenyi(100, 0.08, 3),
		"tree80":   gen.RandomTree(80, 4),
		"ba120":    ba,
		"cl200":    cl,
	}
}

func schemesUnderTest() []*FatThinScheme {
	return []*FatThinScheme{
		NewSparseScheme(2),
		NewSparseSchemeAuto(),
		NewPowerLawScheme(2.5),
		NewFixedThresholdScheme(1),
		NewFixedThresholdScheme(3),
		NewFixedThresholdScheme(1 << 20), // everything thin
	}
}

func TestFatThinExhaustiveCorrectness(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, s := range schemesUnderTest() {
			lab, err := s.Encode(g)
			if err != nil {
				t.Fatalf("%s / %s: encode: %v", name, s.Name(), err)
			}
			if err := lab.Verify(g); err != nil {
				t.Errorf("%s / %s: %v", name, s.Name(), err)
			}
		}
	}
}

func TestFatThinDecoderIsStandalone(t *testing.T) {
	// Adjacency must be answerable from the labels plus n alone: rebuild a
	// fresh decoder not connected to the Labeling.
	g := gen.ErdosRenyi(60, 0.15, 9)
	lab, err := NewSparseScheme(2).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewFatThinDecoder(g.N())
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			lu, err := lab.Label(u)
			if err != nil {
				t.Fatal(err)
			}
			lv, err := lab.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Adjacent(lu, lv)
			if err != nil {
				t.Fatalf("(%d,%d): %v", u, v, err)
			}
			if got != g.HasEdge(u, v) {
				t.Fatalf("standalone decoder wrong at (%d,%d)", u, v)
			}
		}
	}
}

func TestFatThinDecoderSymmetry(t *testing.T) {
	g := gen.ErdosRenyi(50, 0.2, 10)
	lab, err := NewSparseScheme(2).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			a, err := lab.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := lab.Adjacent(v, u)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("asymmetric decode at (%d,%d)", u, v)
			}
		}
	}
}

func TestFatThinSelfQuery(t *testing.T) {
	g := gen.Complete(10)
	lab, err := NewFixedThresholdScheme(2).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		got, err := lab.Adjacent(v, v)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatalf("vertex %d self-adjacent", v)
		}
	}
}

// TestTheorem3SizeBound asserts the structural size guarantee exactly and
// the paper's Theorem 3 formula up to integer-rounding slack (identifiers
// use ceil(log2 n) bits and τ = ceil(x), which together can exceed the
// real-valued formula by at most τ + log n bits).
func TestTheorem3SizeBound(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		g := gen.ErdosRenyiM(n, 2*n, int64(n)) // c = 2 exactly
		c := 2.0
		s := NewSparseScheme(c)
		tau, err := s.Threshold(g)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := s.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		stats := lab.Stats()
		w := bitstr.WidthFor(uint64(n))

		// Exact structural bound: every label is 1 + w + max((τ-1)·w, k)
		// where k ≤ 2cn/τ.
		kMax := int(2 * c * float64(n) / float64(tau))
		structural := 1 + w + maxInt((tau-1)*w, kMax)
		if stats.Max > structural {
			t.Errorf("n=%d: max label %d exceeds structural bound %d", n, stats.Max, structural)
		}

		paper := SparseTheoremBound(c, n)
		if stats.Max > paper+tau+w {
			t.Errorf("n=%d: max label %d exceeds Theorem 3 bound %d (+rounding slack %d)",
				n, stats.Max, paper, tau+w)
		}
	}
}

// TestTheorem4SizeBound does the same for the power-law scheme on graphs
// verified to be members of P_h.
func TestTheorem4SizeBound(t *testing.T) {
	alpha := 2.5
	for _, n := range []int{2000, 10000} {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		p, err := powerlaw.NewParams(alpha, n)
		if err != nil {
			t.Fatal(err)
		}
		if rep := powerlaw.CheckPh(g, p, 1); !rep.Member {
			t.Fatalf("n=%d: workload graph not in P_h (worst k=%d ratio=%.2f) — fix the generator",
				n, rep.WorstK, rep.WorstRatio)
		}
		s := NewPowerLawScheme(alpha)
		tau, err := s.Threshold(g)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := s.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		stats := lab.Stats()
		w := bitstr.WidthFor(uint64(n))

		// For P_h members the number of fat vertices is bounded by
		// C'n/τ^(α-1) (Definition 1 with k = τ ≥ (n/log n)^(1/α)).
		kMax := int(p.CPrim * float64(n) / powF(float64(tau), alpha-1))
		structural := 1 + w + maxInt((tau-1)*w, kMax)
		if stats.Max > structural {
			t.Errorf("n=%d: max label %d exceeds structural bound %d", n, stats.Max, structural)
		}

		paper, err := PowerLawTheoremBound(alpha, n)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Max > paper+tau+w {
			t.Errorf("n=%d: max label %d exceeds Theorem 4 bound %d (+slack %d)",
				n, stats.Max, paper, tau+w)
		}
	}
}

func powF(base, exp float64) float64 { return math.Pow(base, exp) }

func TestAutoSchemesRun(t *testing.T) {
	g, err := gen.ChungLuPowerLaw(3000, 2.4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*FatThinScheme{NewSparseSchemeAuto(), NewPowerLawSchemeAuto()} {
		lab, err := s.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := lab.Verify(g); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestFixedThresholdValidation(t *testing.T) {
	if _, err := NewFixedThresholdScheme(0).Encode(gen.Path(4)); err == nil {
		t.Error("τ=0 accepted")
	}
}

func TestThresholdExtremes(t *testing.T) {
	g := gen.Star(64)
	// τ=1: every vertex fat — labels are 1 + w + n bits.
	lab1, err := NewFixedThresholdScheme(1).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstr.WidthFor(64)
	if got := lab1.Stats().Max; got != 1+w+64 {
		t.Errorf("all-fat max label = %d, want %d", got, 1+w+64)
	}
	// τ=huge: every vertex thin — in the paper's layout the hub stores 63
	// neighbor ids; stored once, each edge sits at its leaf (the hub has the
	// smallest identifier) and no label holds more than one.
	for thin, entries := range map[ThinEdges]int{ThinEdgesBoth: 63, ThinEdgesOnce: 1} {
		s := NewFixedThresholdScheme(1 << 30)
		s.SetThinEdges(thin)
		lab2, err := s.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := lab2.Stats().Max; got != 1+w+entries*w {
			t.Errorf("all-thin max label (thin edges %d) = %d, want %d", thin, got, 1+w+entries*w)
		}
	}
}

func TestStats(t *testing.T) {
	g := gen.Star(10)
	lab, err := NewFixedThresholdScheme(5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	st := lab.Stats()
	if st.Min <= 0 || st.Max < st.Min || st.Mean < float64(st.Min) || st.Mean > float64(st.Max) {
		t.Errorf("inconsistent stats: %+v", st)
	}
	if st.P50 > st.P90 || st.P90 > st.P99 || st.P99 > st.Max {
		t.Errorf("percentiles out of order: %+v", st)
	}
	if st.Total <= 0 {
		t.Errorf("total = %d", st.Total)
	}
	empty := NewLabeling("x", nil, nil)
	if s := empty.Stats(); s != (SizeStats{}) {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestLabelOutOfRange(t *testing.T) {
	g := gen.Path(4)
	lab, err := NewSparseScheme(1).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Label(-1); !errors.Is(err, ErrVertexRange) {
		t.Errorf("Label(-1) err = %v", err)
	}
	if _, err := lab.Label(4); !errors.Is(err, ErrVertexRange) {
		t.Errorf("Label(4) err = %v", err)
	}
	if _, err := lab.Adjacent(0, 99); !errors.Is(err, ErrVertexRange) {
		t.Errorf("Adjacent out of range err = %v", err)
	}
}

func TestMalformedLabels(t *testing.T) {
	dec := NewFatThinDecoder(100)
	var empty bitstr.String
	var ok bitstr.Builder
	ok.AppendBit(false)
	ok.AppendUint(3, bitstr.WidthFor(100))
	if _, err := dec.Adjacent(empty, ok.String()); !errors.Is(err, ErrBadLabel) {
		t.Errorf("empty label err = %v", err)
	}
	// Thin label whose body is not a multiple of the id width.
	var bad bitstr.Builder
	bad.AppendBit(false)
	bad.AppendUint(5, bitstr.WidthFor(100))
	bad.AppendUint(1, 3) // ragged tail
	if _, err := dec.Adjacent(bad.String(), ok.String()); !errors.Is(err, ErrBadLabel) {
		t.Errorf("ragged thin label err = %v", err)
	}
	// Fat/fat query where the partner id exceeds the fat vector length.
	var fatA, fatB bitstr.Builder
	w := bitstr.WidthFor(100)
	fatA.AppendBit(true)
	fatA.AppendUint(0, w)
	fatA.AppendUint(0, 2) // vector of length 2
	fatB.AppendBit(true)
	fatB.AppendUint(9, w) // id 9 >= 2
	fatB.AppendUint(0, 2)
	if _, err := dec.Adjacent(fatA.String(), fatB.String()); !errors.Is(err, ErrBadLabel) {
		t.Errorf("oversized fat id err = %v", err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	g := gen.Path(6)
	lab, err := NewSparseScheme(1).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two labels: verification must notice.
	l := make([]bitstr.String, lab.N())
	for v := range l {
		if l[v], err = lab.Label(v); err != nil {
			t.Fatal(err)
		}
	}
	l[0], l[5] = l[5], l[0]
	if err := NewLabeling(lab.Scheme(), l, lab.Decoder()).Verify(g); err == nil {
		t.Error("Verify accepted a corrupted labeling")
	}
}

func TestVerifySampledPath(t *testing.T) {
	// Exercise the sampled branch of Verify (> exhaustiveLimit vertices).
	g, err := gen.ChungLuPowerLaw(2500, 2.5, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Verify(g); err != nil {
		t.Error(err)
	}
}

// Property: on arbitrary G(n,p) graphs and arbitrary thresholds, decode
// agrees with the graph on every pair.
func TestQuickFatThinAgreesWithGraph(t *testing.T) {
	f := func(seed int64, tauRaw uint8) bool {
		n := 24
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					if err := b.AddEdge(u, v); err != nil {
						return false
					}
				}
			}
		}
		g := b.Build()
		tau := int(tauRaw)%12 + 1
		lab, err := NewFixedThresholdScheme(tau).Encode(g)
		if err != nil {
			return false
		}
		return lab.Verify(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
