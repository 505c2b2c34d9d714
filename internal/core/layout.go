package core

import "fmt"

// Layout selects the physical order of label bodies inside a pipeline slab.
// The logical labeling — which label belongs to which vertex, and every query
// answer — is identical under every layout; only where each body lives in the
// arena changes, and with it the cache behavior of skewed query traffic.
type Layout uint8

const (
	// LayoutID is the historical layout: label v is the v-th in the slab.
	// The zero value, and the default everywhere.
	LayoutID Layout = iota
	// LayoutDegree orders bodies by descending degree: the fat-set hubs —
	// the labels Zipf-skewed traffic hammers — pack into the first few pages
	// of the slab, with the thin tail after. Because fat/thin identifiers are
	// themselves assigned in descending-degree order (assignFatThinIDs), this
	// is exactly identifier order, and the rank→vertex permutation is the
	// plan's byID table. Engines and stores carry that permutation so
	// id-indexed lookup is reconstructed bit-for-bit (see
	// NewQueryEngineFromPermutedArena, labelstore's layout param).
	LayoutDegree
)

// String names the layout as pin keys and experiment tables spell it.
func (l Layout) String() string {
	switch l {
	case LayoutID:
		return "id"
	case LayoutDegree:
		return "degree"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}
