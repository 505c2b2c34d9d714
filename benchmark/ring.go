package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
)

// ring is the pre-built probe stream and its oracle: every pair the workers
// will ever send, cut into fixed frames, with the expected answer of every
// pair computed once at set-up from the graph itself. Workers only index into
// it; nothing is sampled while the clock runs.
type ring struct {
	batch   int
	pairs   [][2]int
	wantAdj []bool // adjacency plane: graph.HasEdge per pair
	wantHop []int  // distance plane: hop distance per pair
}

func (r *ring) frames() int { return len(r.pairs) / r.batch }

func (r *ring) frame(f int) [][2]int { return frameOf(r.pairs, f, r.batch) }

// frameOf is frame f's stretch of a per-pair array.
func frameOf[T any](xs []T, f, batch int) []T { return xs[f*batch : (f+1)*batch] }

// mismatches counts the answers that differ from the oracle's. The loop is one
// compare per pair with a branch that a correct system never takes (0.7
// ns/pair on the builder box, BenchmarkOracleCompare).
func mismatches[T comparable](want, got []T) int {
	if len(got) != len(want) {
		return len(want)
	}
	n := 0
	for i, w := range want {
		if got[i] != w {
			n++
		}
	}
	return n
}

// flipLast corrupts the oracle's answer for the ring's last pair, for the
// tests that prove a wrong answer is noticed.
func (r *ring) flipLast() {
	last := len(r.pairs) - 1
	if r.wantHop != nil {
		r.wantHop[last]++
	} else {
		r.wantAdj[last] = !r.wantAdj[last]
	}
}

// buildRing draws the workload's ring with the sampler seeded seed+7, so one
// -seed moves the graph and the probe stream together.
func buildRing(w workload, g *graph.Graph, seed int64) (*ring, error) {
	sampler, err := experiments.NewProbeSampler(g, w.marginal, w.zipfS, seed+7)
	if err != nil {
		return nil, err
	}
	size := 1 << w.logRing
	if size%w.batch != 0 || (size/w.batch)%(conns*callers) != 0 {
		return nil, fmt.Errorf("ring of %d pairs does not split into %d-pair frames across %d workers", size, w.batch, conns*callers)
	}
	return &ring{batch: w.batch, pairs: sampler.Pairs(make([][2]int, 0, size), size)}, nil
}

// fillAdjOracle answers the whole ring from the graph's own adjacency.
func (r *ring) fillAdjOracle(g *graph.Graph) {
	r.wantAdj = make([]bool, len(r.pairs))
	for i, p := range r.pairs {
		r.wantAdj[i] = g.HasEdge(p[0], p[1])
	}
}

// distOracleSources is how many BFS trees pin the reference distance engine
// before its answers are trusted as the oracle.
const distOracleSources = 32

// fillDistOracle answers the whole ring from an in-process engine over the
// freshly encoded arena — never the served path — after checking that engine
// against breadth-first search from distOracleSources sources to every vertex.
func (r *ring) fillDistOracle(g *graph.Graph, ref *core.DistEngine) error {
	n := g.N()
	for i := 0; i < distOracleSources; i++ {
		src := i * n / distOracleSources
		for v, want := range g.BFS(src) {
			got, err := ref.Dist(src, v)
			if err != nil {
				return fmt.Errorf("distance oracle: dist(%d,%d): %w", src, v, err)
			}
			if got != want {
				return fmt.Errorf("distance oracle: engine says dist(%d,%d) = %d, BFS says %d", src, v, got, want)
			}
		}
	}
	r.wantHop = make([]int, len(r.pairs))
	for i, p := range r.pairs {
		d, err := ref.Dist(p[0], p[1])
		if err != nil {
			return fmt.Errorf("distance oracle: dist(%d,%d): %w", p[0], p[1], err)
		}
		r.wantHop[i] = d
	}
	return nil
}
