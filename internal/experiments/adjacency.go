package experiments

import (
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/powerlaw"
	"repro/internal/schemes/baseline"
)

// e1Sizes returns the n sweep for E1/E7.
func e1Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{1 << 10, 1 << 12, 1 << 14}
	}
	return []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}
}

// E1LabelSizeVsN regenerates the paper's headline comparison: maximum and
// average label size of the Theorem 4 power-law scheme against the Theorem 3
// sparse scheme and the neighbor-list / adjacency-matrix baselines, as n
// grows, for α across the real-world range. Every workload graph is checked
// for P_h membership so the Theorem 4 guarantee applies.
func E1LabelSizeVsN(cfg Config) ([]*Table, error) {
	var tables []*Table
	for _, alpha := range []float64{2.2, 2.5, 2.8} {
		tb := &Table{
			ID:    "E1",
			Title: fmt.Sprintf("max/avg label bits vs n (Chung–Lu, α=%.1f)", alpha),
			Cols: []string{"n", "m", "P_h?", "pl.max", "pl.avg", "thm4.bound", "auto.max", "auto.avg",
				"sparse.max", "sparse.avg", "thm3.bound", "nbr.max", "adjmat.max"},
		}
		for _, n := range e1Sizes(cfg) {
			g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
			if err != nil {
				return nil, err
			}
			p, err := powerlaw.NewParams(alpha, n)
			if err != nil {
				return nil, err
			}
			member := powerlaw.CheckPh(g, p, 1).Member

			plLab, err := paperLayout(core.NewPowerLawScheme(alpha)).Encode(g)
			if err != nil {
				return nil, err
			}
			plStats := plLab.Stats()

			autoLab, err := paperLayout(core.NewPowerLawSchemeAuto()).Encode(g)
			if err != nil {
				return nil, err
			}
			autoStats := autoLab.Stats()

			c := float64(g.M()) / float64(n)
			spLab, err := paperLayout(core.NewSparseScheme(c)).Encode(g)
			if err != nil {
				return nil, err
			}
			spStats := spLab.Stats()

			nbrLab, err := baseline.NeighborList{}.Encode(g)
			if err != nil {
				return nil, err
			}

			// Adjacency-matrix sizes are a function of n alone; computed
			// analytically to avoid materializing Θ(n²) bits.
			adjMax := bitstr.WidthFor(uint64(n)) + n - 1

			thm4, err := core.PowerLawTheoremBound(alpha, n)
			if err != nil {
				return nil, err
			}
			tb.AddRow(
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", g.M()), fmt.Sprintf("%v", member),
				fmtBits(plStats.Max), fmtF(plStats.Mean), fmtBits(thm4),
				fmtBits(autoStats.Max), fmtF(autoStats.Mean),
				fmtBits(spStats.Max), fmtF(spStats.Mean), fmtBits(core.SparseTheoremBound(c, n)),
				fmtBits(nbrLab.Stats().Max), fmtBits(adjMax),
			)
		}
		tb.Notes = append(tb.Notes,
			"expected shape: labels grow ≈ n^(1/α), below sparse.max ≈ √(n log n) and far below adjmat.max ≈ n",
			"pl.* uses the worst-case Theorem 4 threshold (constant C'); auto.* fits the threshold from the degree curve — the paper's practical variant")
		tables = append(tables, tb)
	}
	return tables, nil
}

// E2ThresholdSweep reproduces the full version's threshold experiment: sweep
// the degree threshold τ, find the τ* minimizing the maximum label size, and
// compare against the predicted τ(n) = ceil((C'n/log n)^(1/α)).
func E2ThresholdSweep(cfg Config) ([]*Table, error) {
	alpha := 2.5
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 12, 1 << 13}
	}
	tb := &Table{
		ID:    "E2",
		Title: fmt.Sprintf("predicted vs optimal threshold (Chung–Lu, α=%.1f)", alpha),
		Cols: []string{"n", "τ.auto", "max@auto", "τ.prac", "max@prac", "τ.thm4", "max@thm4",
			"τ*", "max@τ*", "auto/τ*", "auto.ratio", "thm4.ratio"},
	}
	for _, n := range sizes {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		p, err := powerlaw.NewParams(alpha, n)
		if err != nil {
			return nil, err
		}
		thm4 := p.PowerLawThreshold()
		prac, err := core.NewPowerLawSchemePractical(alpha).Threshold(g)
		if err != nil {
			return nil, err
		}
		auto, err := core.NewPowerLawSchemeAuto().Threshold(g)
		if err != nil {
			return nil, err
		}
		maxAt := func(tau int) (int, error) {
			lab, err := paperLayout(core.NewFixedThresholdScheme(tau)).Encode(g)
			if err != nil {
				return 0, err
			}
			return lab.Stats().Max, nil
		}
		atThm4, err := maxAt(thm4)
		if err != nil {
			return nil, err
		}
		atPrac, err := maxAt(prac)
		if err != nil {
			return nil, err
		}
		atAuto, err := maxAt(auto)
		if err != nil {
			return nil, err
		}
		// Sweep a geometric+linear grid of thresholds up to the max degree
		// (beyond which nothing changes).
		best, bestTau := atPrac, prac
		maxTau := g.MaxDegree() + 1
		seen := map[int]bool{prac: true, thm4: true, auto: true}
		if atThm4 < best {
			best, bestTau = atThm4, thm4
		}
		if atAuto < best {
			best, bestTau = atAuto, auto
		}
		for tau := 1; tau <= maxTau; tau = next(tau) {
			if seen[tau] {
				continue
			}
			seen[tau] = true
			m, err := maxAt(tau)
			if err != nil {
				return nil, err
			}
			if m < best {
				best, bestTau = m, tau
			}
		}
		tb.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", auto), fmtBits(atAuto),
			fmt.Sprintf("%d", prac), fmtBits(atPrac),
			fmt.Sprintf("%d", thm4), fmtBits(atThm4),
			fmt.Sprintf("%d", bestTau), fmtBits(best),
			fmtF2(float64(auto)/float64(bestTau)),
			fmtF2(float64(atAuto)/float64(best)),
			fmtF2(float64(atThm4)/float64(best)),
		)
	}
	tb.Notes = append(tb.Notes,
		"paper (full version): the fitted-curve threshold is reasonably close to the optimum — auto.ratio ≈ 1 confirms it",
		"the worst-case constant C' inflates the Theorem 4 threshold by C'^(1/α) ≈ 5x (thm4.ratio); fitting the real tail coefficient recovers the paper's practical behaviour")
	return []*Table{tb}, nil
}

// next advances a sweep grid: dense for small τ, ~10% steps afterwards.
func next(tau int) int {
	if tau < 16 {
		return tau + 1
	}
	step := tau / 10
	if step < 1 {
		step = 1
	}
	return tau + step
}

// E3AlphaSweep measures label size as a function of the power-law exponent
// at fixed n, exhibiting Theorem 4's n^(1/α) dependence.
func E3AlphaSweep(cfg Config) ([]*Table, error) {
	n := 1 << 16
	if cfg.Quick {
		n = 1 << 13
	}
	tb := &Table{
		ID:    "E3",
		Title: fmt.Sprintf("label bits vs α (Chung–Lu, n=%d)", n),
		Cols:  []string{"α", "m", "τ.pred", "pl.max", "pl.avg", "thm4.bound", "fit.α"},
	}
	for _, alpha := range []float64{2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0} {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(alpha*100))
		if err != nil {
			return nil, err
		}
		p, err := powerlaw.NewParams(alpha, n)
		if err != nil {
			return nil, err
		}
		lab, err := paperLayout(core.NewPowerLawScheme(alpha)).Encode(g)
		if err != nil {
			return nil, err
		}
		st := lab.Stats()
		bound, err := core.PowerLawTheoremBound(alpha, n)
		if err != nil {
			return nil, err
		}
		degrees := g.Degrees()
		fitStr := "-"
		if fit, err := powerlaw.FitAlpha(degrees); err == nil {
			fitStr = fmtF2(fit.Alpha)
		}
		tb.AddRow(fmtF(alpha), fmt.Sprintf("%d", g.M()),
			fmt.Sprintf("%d", p.PowerLawThreshold()),
			fmtBits(st.Max), fmtF(st.Mean), fmtBits(bound), fitStr)
	}
	tb.Notes = append(tb.Notes,
		"expected shape: pl.max decreases as α grows (labels ≈ n^(1/α)·(log n)^(1-1/α))")
	return []*Table{tb}, nil
}

// E4LowerBound exercises the Theorem 6 construction: embed a random graph H
// on i₁ = Θ(n^(1/α)) vertices into an n-vertex member of P_l, verify
// membership, and report the implied lower bound ⌊i₁/2⌋ next to what the
// Theorem 4 scheme actually assigns on the constructed graph.
func E4LowerBound(cfg Config) ([]*Table, error) {
	tb := &Table{
		ID:    "E4",
		Title: "lower-bound construction: G ∈ P_l containing arbitrary H (random H, p=1/2)",
		Cols:  []string{"α", "n", "i₁", "LB=⌊i₁/2⌋", "P_l?", "P_h?", "pl.max", "max/LB", "thm4/LB"},
	}
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 12, 1 << 13}
	}
	for _, alpha := range []float64{2.2, 2.5, 3.0} {
		for _, n := range sizes {
			p, err := powerlaw.NewParams(alpha, n)
			if err != nil {
				return nil, err
			}
			h := gen.ErdosRenyi(p.I1, 0.5, cfg.Seed+int64(n))
			emb, err := gen.PlEmbed(p, h)
			if err != nil {
				return nil, err
			}
			inPl := powerlaw.CheckPl(emb.G, p) == nil
			inPh := powerlaw.CheckPh(emb.G, p, 1).Member
			lab, err := paperLayout(core.NewPowerLawScheme(alpha)).Encode(emb.G)
			if err != nil {
				return nil, err
			}
			lb := p.AdjacencyLowerBound()
			bound, err := core.PowerLawTheoremBound(alpha, n)
			if err != nil {
				return nil, err
			}
			ratio, thmRatio := math.Inf(1), math.Inf(1)
			if lb > 0 {
				ratio = float64(lab.Stats().Max) / float64(lb)
				thmRatio = float64(bound) / float64(lb)
			}
			tb.AddRow(fmtF(alpha), fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", p.I1), fmt.Sprintf("%d", lb),
				fmt.Sprintf("%v", inPl), fmt.Sprintf("%v", inPh),
				fmtBits(lab.Stats().Max), fmtF(ratio), fmtF(thmRatio))
		}
	}
	tb.Notes = append(tb.Notes,
		"the gap max/LB tracks the (log n)^(1-1/α) factor between Theorem 4 and Theorem 6",
		"P_l?=true certifies the constructed graph satisfies Definition 2 exactly")
	return []*Table{tb}, nil
}

// phMemberCheck is a shared helper for workloads that must be in P_h.
func phMemberCheck(g *graph.Graph, alpha float64) (bool, error) {
	p, err := powerlaw.NewParams(alpha, g.N())
	if err != nil {
		return false, err
	}
	return powerlaw.CheckPh(g, p, 1).Member, nil
}

// paperLayout pins a fat/thin scheme to the paper's literal label layout —
// every thin label lists all its neighbors — which is what the label-size
// columns of E1–E19 and E21 hold against the theorems' bounds. The encoder
// experiment (E20) takes the served default, each thin-side
// edge stored once; E33 in EXPERIMENTS.md sets the two side by side.
func paperLayout(s *core.FatThinScheme) *core.FatThinScheme {
	s.SetThinEdges(core.ThinEdgesBoth)
	return s
}
