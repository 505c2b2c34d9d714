package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/powerlaw"
)

// E33ThinEdgesOnce sets the served fat/thin layout — a thin label lists only
// its neighbors of smaller identifier, so an edge with a thin endpoint is
// stored once — beside the paper's both-ends layout, with Theorem 4's bound
// and Theorem 6's lower bound in the same rows: label bits and store bytes
// over n and α on Chung–Lu graphs; two adversarial members — the Section 5
// construction, and a bipartite graph just under τ on which storing once saves
// nothing, so Theorem 4's worst case stands; and a threshold sweep showing
// where the fat bitmap and the longest thin list balance once the lists are
// shorter.
func E33ThinEdgesOnce(cfg Config) ([]*Table, error) {
	sizes := []int{1 << 14, 1 << 16, 1 << 18, 1 << 20}
	sweepN := 1 << 20
	if cfg.Quick {
		sizes = []int{1 << 12, 1 << 14}
		sweepN = 1 << 14
	}
	alphas := []float64{2.2, 2.5, 2.8}

	sized := &Table{
		ID:    "E33",
		Title: "thin-side edges stored once vs at both ends (Chung–Lu, degree-ordered store)",
		Cols: []string{"α", "n", "m", "τ", "LB=⌊i₁/2⌋", "thm4", "both.max", "once.max", "both.mean", "once.mean",
			"both.Mbit", "once.Mbit", "both.store", "once.store", "Δstore"},
	}
	for _, alpha := range alphas {
		for _, n := range sizes {
			g, err := gen.ChungLuPowerLaw(n, alpha, 2, cfg.Seed+int64(n))
			if err != nil {
				return nil, err
			}
			p, err := powerlaw.NewParams(alpha, n)
			if err != nil {
				return nil, err
			}
			both, bothBytes, err := encodeThinEdges(g, alpha, core.ThinEdgesBoth)
			if err != nil {
				return nil, err
			}
			once, onceBytes, err := encodeThinEdges(g, alpha, core.ThinEdgesOnce)
			if err != nil {
				return nil, err
			}
			sized.AddRow(fmtF(alpha), strconv.Itoa(n), strconv.Itoa(g.M()), strconv.Itoa(p.PowerLawThreshold()),
				strconv.Itoa(p.AdjacencyLowerBound()), fmtBits(int(p.PowerLawLabelBound()+0.5)),
				fmtBits(both.Max), fmtBits(once.Max), fmtF(both.Mean), fmtF(once.Mean),
				fmtF(float64(both.Total)/1e6), fmtF(float64(once.Total)/1e6),
				strconv.FormatInt(bothBytes, 10), strconv.FormatInt(onceBytes, 10),
				fmt.Sprintf("%+.1f%%", 100*float64(onceBytes-bothBytes)/float64(bothBytes)))
		}
	}
	sized.Notes = append(sized.Notes,
		"both.max is the thin vertex just under τ, 1+w+(τ-1)·w bits — Theorem 4's bound up to rounding; stored once, that vertex keeps only its neighbors ranked above it, and on Chung–Lu graphs few are",
		"store bytes include the per-label length table and the degree-layout permutation, which do not shrink")

	adversarial := &Table{
		ID:    "E33",
		Title: "adversarial members: the Section 5 construction (a random H on i₁ vertices hidden in G ∈ P_l) and K(τ-1,τ) plus isolated vertices, whose thin side has only fat neighbors",
		Cols:  []string{"α", "n", "instance", "P_h?", "τ", "LB=⌊i₁/2⌋", "thm4", "both.max", "once.max", "both.Mbit", "once.Mbit", "Δbits"},
	}
	for _, alpha := range alphas {
		n := sizes[0]
		p, err := powerlaw.NewParams(alpha, n)
		if err != nil {
			return nil, err
		}
		emb, err := gen.PlEmbed(p, gen.ErdosRenyi(p.I1, 0.5, cfg.Seed+int64(n)))
		if err != nil {
			return nil, err
		}
		tau := p.PowerLawThreshold()
		for _, inst := range []struct {
			name string
			g    *graph.Graph
		}{{"section5(gnp ½)", emb.G}, {"K(τ-1,τ)+isolated", bipartiteUnderTau(n, tau)}} {
			both, _, err := encodeThinEdges(inst.g, alpha, core.ThinEdgesBoth)
			if err != nil {
				return nil, err
			}
			once, _, err := encodeThinEdges(inst.g, alpha, core.ThinEdgesOnce)
			if err != nil {
				return nil, err
			}
			adversarial.AddRow(fmtF(alpha), strconv.Itoa(n), inst.name, fmt.Sprintf("%v", powerlaw.CheckPh(inst.g, p, 1).Member),
				strconv.Itoa(tau), strconv.Itoa(p.AdjacencyLowerBound()), fmtBits(int(p.PowerLawLabelBound()+0.5)),
				fmtBits(both.Max), fmtBits(once.Max), fmtF2(float64(both.Total)/1e6), fmtF2(float64(once.Total)/1e6),
				fmt.Sprintf("%+.1f%%", 100*float64(once.Total-both.Total)/float64(both.Total)))
		}
	}
	adversarial.Notes = append(adversarial.Notes,
		"K(τ-1,τ): τ-1 vertices of degree τ (fat) joined to τ vertices of degree τ-1 (thin, every neighbor fat) — a member of P_h on which the once layout saves nothing and the maximum stays on Theorem 4's bound: the worst case is untouched, only the constant on typical members falls",
		"no orientation can take any scheme under LB, which every scheme for P_l must pay (Theorem 6)")

	sweep, err := thinEdgesTauSweep(sweepN, 2.5, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return []*Table{sized, adversarial, sweep}, nil
}

// encodeThinEdges encodes g with Theorem 4's scheme under one thin-edge layout,
// degree-ordered as the served stores are, and returns the label statistics
// and the bytes labelstore.Write produces for the labeling.
func encodeThinEdges(g *graph.Graph, alpha float64, thin core.ThinEdges) (core.SizeStats, int64, error) {
	s := core.NewPowerLawScheme(alpha)
	s.SetThinEdges(thin)
	lab, err := s.EncodeParallel(g, 0)
	if err != nil {
		return core.SizeStats{}, 0, err
	}
	slab, order, _ := lab.ArenaLayout()
	file, err := labelstore.NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(g.N())}, slab, lab.BitLens(), order)
	if err != nil {
		return core.SizeStats{}, 0, err
	}
	var size countingWriter
	if err := labelstore.Write(&size, file); err != nil {
		return core.SizeStats{}, 0, err
	}
	return lab.Stats(), int64(size), nil
}

// bipartiteUnderTau is the complete bipartite graph between tau-1 vertices and
// tau vertices, padded with isolated vertices to n: under threshold tau the
// small side is fat and every thin vertex of the large side has only fat
// neighbors, all of smaller identifier — the input on which a thin label
// loses no entry by listing smaller identifiers only.
func bipartiteUnderTau(n, tau int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < tau-1; u++ {
		for v := tau - 1; v < 2*tau-1; v++ {
			_ = b.AddEdge(u, v) // distinct in-range endpoints, each pair once
		}
	}
	return b.Build()
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// thinEdgesTauSweep moves the threshold across Theorem 4's on one graph and
// reports the two label parts it balances — the fat label 1+w+k and the
// longest thin label — under both layouts. Report only: the default threshold
// is Theorem 4's.
func thinEdgesTauSweep(n int, alpha float64, seed int64) (*Table, error) {
	g, err := gen.ChungLuPowerLaw(n, alpha, 2, seed+int64(n))
	if err != nil {
		return nil, err
	}
	p, err := powerlaw.NewParams(alpha, n)
	if err != nil {
		return nil, err
	}
	thm4 := p.PowerLawThreshold()
	tb := &Table{
		ID:    "E33",
		Title: fmt.Sprintf("threshold sweep, n=%d α=%.1f (Theorem 4: τ=%d): fat label vs longest thin label", n, alpha, thm4),
		Cols:  []string{"τ", "τ/thm4", "k", "fat.bits", "both.thin.max", "once.thin.max", "both.max", "once.max", "once.Mbit"},
	}
	w := bitstr.WidthFor(uint64(n))
	for _, scale := range []float64{1. / 16, 1. / 8, 3. / 16, 1. / 4, 3. / 8, 1. / 2, 3. / 4, 1, 2, 4, 16} {
		tau := max(2, int(float64(thm4)*scale))
		k, bothThin := 0, 0
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d >= tau {
				k++
			} else {
				bothThin = max(bothThin, 1+w+d*w)
			}
		}
		s := core.NewFixedThresholdScheme(tau)
		lab, err := s.EncodeParallel(g, 0)
		if err != nil {
			return nil, err
		}
		fat, onceThin := 1+w+k, 0
		for v, bits := range lab.BitLens() {
			if g.Degree(v) < tau {
				onceThin = max(onceThin, bits)
			}
		}
		st := lab.Stats()
		tb.AddRow(strconv.Itoa(tau), fmtF2(scale), strconv.Itoa(k), fmtBits(fat), fmtBits(bothThin), fmtBits(onceThin),
			fmtBits(max(fat, bothThin)), fmtBits(st.Max), fmtF(float64(st.Total)/1e6))
	}
	tb.Notes = append(tb.Notes,
		"each max column is smallest where fat.bits crosses its thin.max column; both cross below Theorem 4's τ (its constant C', E2), the once layout at the larger τ",
		"past its crossing once.max is nearly flat in τ: on a Chung–Lu graph a high-degree thin vertex has few neighbors ranked above it, so the fat set buys little here — it is the adversarial members above that still need it")
	return tb, nil
}
