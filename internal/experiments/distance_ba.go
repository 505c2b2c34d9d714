package experiments

import (
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/powerlaw"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

// E5DistanceLabels measures Lemma 7's f(n)-bounded distance labels against
// the exact distance-vector baseline, across f, and spot-checks query
// correctness against BFS ground truth.
func E5DistanceLabels(cfg Config) ([]*Table, error) {
	alpha := 2.5
	sizes := []int{1 << 10, 1 << 11, 1 << 12}
	if cfg.Quick {
		sizes = []int{1 << 9, 1 << 10}
	}
	tb := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("distance label bits: Lemma 7 vs PLL vs exact vectors (Chung–Lu, α=%.1f)", alpha),
		Cols: []string{"n", "diam", "f", "τ.fat", "#fat", "f.max", "f.avg",
			"pll.max", "exact.max", "f/exact", "f/pll", "checked"},
	}
	for _, n := range sizes {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		exact, err := (distance.ExactScheme{}).Encode(g)
		if err != nil {
			return nil, err
		}
		_, exactMax, _ := exact.Stats()
		pll, err := (distance.PLLScheme{}).EncodeArena(g, 0, core.LayoutDegree)
		if err != nil {
			return nil, err
		}
		pllMax, err := pllFixedWidthMax(pll)
		if err != nil {
			return nil, err
		}
		diam := g.Diameter()
		fs := []int{2, 3, 4, int(math.Ceil(math.Log2(float64(n))))}
		for _, f := range fs {
			s := distance.Scheme{Alpha: alpha, F: f}
			arena, err := s.EncodeArena(g, 0, core.LayoutDegree)
			if err != nil {
				return nil, err
			}
			tau, err := s.Threshold(n)
			if err != nil {
				return nil, err
			}
			nFat := arena.Params.NFat
			stats := core.SizeStatsOf(arena.BitLens)
			fMax, fAvg := stats.Max, stats.Mean

			// Spot-check correctness on a deterministic pair sample.
			eng, err := core.NewDistEngine(arena)
			if err != nil {
				return nil, err
			}
			checked, err := checkDistanceSample(g, eng, f, 64)
			if err != nil {
				return nil, err
			}
			ratioExact, ratioPll := math.Inf(1), math.Inf(1)
			if exactMax > 0 {
				ratioExact = float64(fMax) / float64(exactMax)
			}
			if pllMax > 0 {
				ratioPll = float64(fMax) / float64(pllMax)
			}
			tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", diam), fmt.Sprintf("%d", f),
				fmt.Sprintf("%d", tau), fmt.Sprintf("%d", nFat),
				fmtBits(fMax), fmtF(fAvg), fmtBits(pllMax), fmtBits(exactMax),
				fmtF2(ratioExact), fmtF2(ratioPll),
				fmt.Sprintf("%d ok", checked))
		}
	}
	tb.Notes = append(tb.Notes,
		"Chung–Lu power-law graphs have Θ(log n) diameter, so f=⌈log2 n⌉ answers almost every query (Section 7)",
		"pll = pruned landmark labeling, the practical exact-distance competitor standing in for the Section 7 comparison schemes (see DESIGN.md)",
		"expected shape: f.max ≪ exact.max for small f; PLL (exact, all distances) sits between — the f-bounded contract is what buys the extra factor")
	return []*Table{tb}, nil
}

// pllFixedWidthMax prices the PLL labels of a at fixed width, as Lemma 7's
// labels are: a w-bit id, a wCnt-bit entry count, then per entry a w-bit
// rank and a dw-bit distance — the arena's own entry counts and dw, without
// its δ-gap rank coding. It returns the largest such label in bits.
func pllFixedWidthMax(a *core.DistArena) (int, error) {
	n := a.N()
	w, wCnt := max(bitstr.WidthFor(uint64(n)), 1), max(bitstr.WidthFor(uint64(n)+1), 1)
	best := 0
	walk := bitstr.NewSlabWalk(len(a.Slab), a.BitLens, a.Order)
	for walk.Next() {
		_, off := walk.Label()
		cnt := int(bitstr.SlabReadBits(a.Slab, off+int64(w), wCnt))
		best = max(best, w+wCnt+cnt*(w+a.Params.DW))
	}
	return best, walk.Err()
}

// checkDistanceSample verifies the Lemma 7 contract on sources spread over
// the vertex set; returns the number of verified pairs.
func checkDistanceSample(g interface {
	N() int
	BFS(int) []int
}, eng *core.DistEngine, f, sources int) (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	step := n / sources
	if step == 0 {
		step = 1
	}
	checked := 0
	for u := 0; u < n; u += step {
		truth := g.BFS(u)
		for _, v := range []int{0, n / 3, n / 2, 2 * n / 3, n - 1} {
			got, err := eng.Dist(u, v)
			if err != nil {
				return checked, err
			}
			want := truth[v]
			if want < 0 || want > f {
				if got != distance.Beyond {
					return checked, fmt.Errorf("experiments: dist(%d,%d) = %d, want Beyond (true %d)", u, v, got, want)
				}
			} else if got != want {
				return checked, fmt.Errorf("experiments: dist(%d,%d) = %d, want %d", u, v, got, want)
			}
			checked++
		}
	}
	return checked, nil
}

// E6BAForest reproduces the Proposition 5 comparison: on BA graphs, the
// forest-decomposition scheme's O(m log n) labels against the fat/thin
// power-law scheme (BA graphs have α = 3 asymptotically).
func E6BAForest(cfg Config) ([]*Table, error) {
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 11, 1 << 12}
	}
	tb := &Table{
		ID:    "E6",
		Title: "BA graphs: forest-decomposition labels vs fat/thin (Prop 5, α=3)",
		Cols:  []string{"n", "m.BA", "forests", "forest.max", "online.max", "fatthin.max", "fatthin.avg", "win"},
	}
	for _, m := range []int{1, 2, 3, 5, 8} {
		for _, n := range sizes {
			g, err := gen.BarabasiAlbert(n, m, cfg.Seed+int64(n*m))
			if err != nil {
				return nil, err
			}
			fs := forest.Scheme{}
			fLab, err := fs.Encode(g)
			if err != nil {
				return nil, err
			}
			// The m·log n tightening: encoder running during BA growth.
			_, online, err := forest.EncodeBAOnline(n, m, cfg.Seed+int64(n*m))
			if err != nil {
				return nil, err
			}
			// BA graphs have power-law exponent 3.
			ft, err := paperLayout(core.NewPowerLawScheme(3.0)).Encode(g)
			if err != nil {
				return nil, err
			}
			fMax := fLab.Stats().Max
			tMax := ft.Stats().Max
			win := "forest"
			if tMax < fMax {
				win = "fatthin"
			}
			tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", m),
				fmt.Sprintf("%d", fs.Forests(g)),
				fmtBits(fMax), fmtBits(online.Stats().Max),
				fmtBits(tMax), fmtF(ft.Stats().Mean), win)
		}
	}
	tb.Notes = append(tb.Notes,
		"expected shape: forest labels ≈ (m+1)·log n stay flat in n and win for every realistic m",
		"online.max = the paper's m·log n tightening (encoder operating during graph creation); exactly (m+1)·ceil(log2 n) bits",
		"this is the Section 6 separation: BA locality differs from worst-case power-law graphs")
	return []*Table{tb}, nil
}

// E7OneQuery measures the Section 6 1-query relaxation: O(log n) labels on
// the same Chung–Lu workloads where 2-label schemes need Ω(n^(1/α)).
func E7OneQuery(cfg Config) ([]*Table, error) {
	alpha := 2.5
	tb := &Table{
		ID:    "E7",
		Title: fmt.Sprintf("1-query labels vs 2-label fat/thin (Chung–Lu, α=%.1f)", alpha),
		Cols:  []string{"n", "m", "1q.max", "1q.avg", "dec.desc(KiB)", "fatthin.max", "LB(2-label)", "1q/LB"},
	}
	for _, n := range e1Sizes(cfg) {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		enc, err := (onequery.Scheme{Seed: cfg.Seed}).Encode(g)
		if err != nil {
			return nil, err
		}
		descBytes, err := enc.DescriptionBytes()
		if err != nil {
			return nil, err
		}
		ft, err := paperLayout(core.NewPowerLawScheme(alpha)).Encode(g)
		if err != nil {
			return nil, err
		}
		p, err := powerlaw.NewParams(alpha, n)
		if err != nil {
			return nil, err
		}
		lb := p.AdjacencyLowerBound()
		ratio := math.Inf(1)
		if lb > 0 {
			ratio = float64(enc.Stats().Max) / float64(lb)
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", g.M()),
			fmtBits(enc.Stats().Max), fmtF(enc.Stats().Mean),
			fmtF(float64(descBytes)/1024),
			fmtBits(ft.Stats().Max), fmt.Sprintf("%d", lb), fmtF2(ratio))
	}
	tb.Notes = append(tb.Notes,
		"expected shape: 1q.max ≈ O(log n) stays flat while the 2-label lower bound Ω(n^(1/α)) grows — the relaxation bypasses Theorem 6",
		"dec.desc = serialized FKS table shared by the decoder; Θ(n) words in this concrete realization (the paper sketches an O(log n)-bit description — see DESIGN.md)")
	return []*Table{tb}, nil
}
