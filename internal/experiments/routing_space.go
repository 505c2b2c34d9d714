package experiments

import (
	"fmt"

	"repro/internal/compressgraph"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/onequery"
	"repro/internal/schemes/routing"
)

// E17RoutingStretch measures the Brady–Cowen-style routing labels the
// paper's related work positions next to its adjacency schemes: label size
// and additive stretch of core-tree routing on power-law graphs, as the
// number of core trees grows.
func E17RoutingStretch(cfg Config) ([]*Table, error) {
	alpha := 2.3
	sizes := []int{1 << 12, 1 << 14}
	if cfg.Quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	tb := &Table{
		ID:    "E17",
		Title: fmt.Sprintf("core-tree routing: label size and additive stretch (Chung–Lu, α=%.1f)", alpha),
		Cols: []string{"n", "k.trees", "lab.max", "lab.avg", "mean.stretch", "max.stretch",
			"exact%", "pairs"},
	}
	for _, n := range sizes {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		comp, _ := g.ConnectedComponents()
		for _, k := range []int{1, 2, 4, 8} {
			lab, err := (routing.Scheme{K: k}).Encode(g)
			if err != nil {
				return nil, err
			}
			dec := lab.Decoder()
			_, labMax, labAvg := lab.Stats()

			// Deterministic pair sample over the giant component.
			pairs, exact, totalStretch, maxStretch := 0, 0, 0, 0
			for u := 0; u < n; u += maxIntE(n/64, 1) {
				truth := g.BFS(u)
				for v := 0; v < n; v += maxIntE(n/64, 1) {
					if u == v || comp[u] != comp[v] {
						continue
					}
					lu, err := lab.Label(u)
					if err != nil {
						return nil, err
					}
					lv, err := lab.Label(v)
					if err != nil {
						return nil, err
					}
					td, err := dec.TreeDist(lu, lv)
					if err != nil {
						return nil, err
					}
					s := td - truth[v]
					if s < 0 {
						return nil, fmt.Errorf("E17: tree distance below true distance at (%d,%d)", u, v)
					}
					pairs++
					totalStretch += s
					if s > maxStretch {
						maxStretch = s
					}
					if s == 0 {
						exact++
					}
				}
			}
			meanStretch := 0.0
			exactPct := 0.0
			if pairs > 0 {
				meanStretch = float64(totalStretch) / float64(pairs)
				exactPct = 100 * float64(exact) / float64(pairs)
			}
			tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", k),
				fmtBits(labMax), fmtF(labAvg),
				fmtF2(meanStretch), fmt.Sprintf("%d", maxStretch),
				fmtF(exactPct), fmt.Sprintf("%d", pairs))
		}
	}
	tb.Notes = append(tb.Notes,
		"routes follow BFS trees from the k highest-degree core vertices; stretch is additive (routed hops − true distance)",
		"expected shape: stretch falls as k grows while labels grow ≈ linearly in k — the Brady–Cowen trade-off the related work describes")
	return []*Table{tb}, nil
}

func maxIntE(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E18PriceOfLocality compares the two storage paradigms of the paper's
// introduction: one globally compressed adjacency structure versus the sum
// of all per-vertex labels (which buys fully local, peer-to-peer queries).
func E18PriceOfLocality(cfg Config) ([]*Table, error) {
	alpha := 2.3
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 11, 1 << 13}
	}
	tb := &Table{
		ID:    "E18",
		Title: fmt.Sprintf("price of locality: total bits, global compression vs per-vertex labels (Chung–Lu, α=%.1f)", alpha),
		Cols: []string{"n", "m", "global(KiB)", "fatthin(KiB)", "compressed(KiB)",
			"nbrlist(KiB)", "onequery(KiB)", "fatthin/global"},
	}
	for _, n := range sizes {
		g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		global := compressgraph.Encode(g).TotalBits()

		ft, err := paperLayout(core.NewPowerLawSchemeAuto()).Encode(g)
		if err != nil {
			return nil, err
		}
		cp, err := core.NewCompressedScheme(core.NewPowerLawSchemeAuto()).Encode(g)
		if err != nil {
			return nil, err
		}
		nb, err := baseline.NeighborList{}.Encode(g)
		if err != nil {
			return nil, err
		}
		oq, err := (onequery.Scheme{Seed: cfg.Seed}).Encode(g)
		if err != nil {
			return nil, err
		}
		kib := func(bits int64) string { return fmtF(float64(bits) / 8192) }
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", g.M()),
			kib(global), kib(ft.Stats().Total), kib(cp.Stats().Total),
			kib(nb.Stats().Total), kib(oq.Stats().Total),
			fmtF2(float64(ft.Stats().Total)/float64(global)))
	}
	tb.Notes = append(tb.Notes,
		"global = γ/δ gap-compressed CSR stream + random-access index (the WebGraph paradigm the introduction contrasts with)",
		"a ratio near (or below) 1 means locality comes nearly free: the fat/thin layout stores each fat–thin edge once and collapses hub rows into bitmaps, offsetting the per-label overhead the peer-to-peer model requires")
	return []*Table{tb}, nil
}
