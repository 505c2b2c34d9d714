package labelstore

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Engines builds the engine that answers queries over the store — the one
// store-to-engine rule every reader follows. Exactly one result is non-nil on
// success. A distance store (scheme kind pll or bdist) gets a core.DistEngine
// over its DistArena. An adjacency store must carry a fat/thin-layout scheme
// name (CheckServable) and gets a core.QueryEngine over its arena, zero-copy;
// a shard store also gets its shard map attached, so the engine answers
// ErrNotResident for a pair outside its owned range instead of reading an
// absent label. A fat/thin store of two or more labels with no layout
// permutation is refused by shape: pllabel has written every such labeling
// in its degree order since the degree layout, so one in vertex order is a
// stale store (re-run pllabel). A nbrlist store, whose vertex v carries
// identifier v, is served in vertex order. The engines read the store's
// arena: built over a MappedFile, they must not be used after Close.
func (f *File) Engines() (*core.QueryEngine, *core.DistEngine, error) {
	if da, ok := f.DistArena(); ok {
		deng, err := core.NewDistEngine(da)
		if err != nil {
			return nil, nil, err
		}
		return nil, deng, nil
	}
	if err := CheckServable(f.Scheme); err != nil {
		return nil, nil, err
	}
	if f.order == nil && f.N() > 1 && f.Scheme != "nbrlist" {
		return nil, nil, fmt.Errorf("labelstore: %q store in vertex order, the layout before the degree layout (re-run pllabel)", f.Scheme)
	}
	eng, err := core.NewQueryEngineFromPermutedArena(f.arena, f.bitLens, f.order)
	if err != nil {
		return nil, nil, err
	}
	if m, ok := f.Shard(); ok {
		if err := eng.SetShard(m); err != nil {
			return nil, nil, err
		}
	}
	return eng, nil, nil
}

// CheckServable refuses an adjacency scheme whose labels no engine reads. The
// query engine reads the fat/thin layout: every core.FatThinScheme's labels
// (powerlaw*, sparse*, fatthin*) and the all-thin "nbrlist" baseline's. Any
// other layout — adjmatrix, forest, onequery, CompressedScheme's gap-coded
// thin labels — can pass the engine's header checks and still answer
// wrongly, so the scheme name decides, before a store is opened or written.
func CheckServable(scheme string) error {
	for _, prefix := range []string{"sparse", "powerlaw", "fatthin"} {
		if strings.HasPrefix(scheme, prefix) {
			return nil
		}
	}
	if scheme == "nbrlist" {
		return nil
	}
	return fmt.Errorf("scheme %q is not a fat/thin layout", scheme)
}
