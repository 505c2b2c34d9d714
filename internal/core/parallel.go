package core

import (
	"repro/internal/graph"
)

// EncodeParallel labels g with the same fat/thin layout as Encode, through
// the slab pipeline with label construction sharded across worker
// goroutines. The identifier assignment (a sort by degree) and the size-plan
// prefix sum stay sequential; the fill phase — the dominant cost for large
// graphs — is embarrassingly parallel because every label occupies its own
// bytes of the slab and depends only on its own adjacency list and the
// shared id table. Output is bit-for-bit identical to Encode's.
// workers <= 0 selects GOMAXPROCS.
func (s *FatThinScheme) EncodeParallel(g *graph.Graph, workers int) (*Labeling, error) {
	tau, err := s.threshold(g)
	if err != nil {
		return nil, err
	}
	return encodeFatThinSlab(s.name, g, tau, workers, s.thinEdges)
}
