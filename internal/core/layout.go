package core

import "fmt"

// Layout names the physical order of label bodies inside a slab. There is one:
// every fat/thin and distance encoder writes its labels in identifier order,
// which Theorems 3/4 assign by descending degree — the fat hubs 0..k-1 first,
// the thin tail after — so the label at slab rank r is the vertex whose
// identifier is r, and the hubs skewed traffic hammers pack into the slab's
// first pages. The slab carries that rank→vertex permutation (the plan's byID
// table, or the distance schemes' landmark order), which engines and stores
// thread through so id-indexed lookup is bit-for-bit the same
// (NewQueryEngineFromPermutedArena, labelstore's permutation block). The
// query engine holds every slab to that contract at build: the label at rank
// r carries identifier r, the k fat labels lead, each with a k-bit body. A
// nil order is the identity (NewLabeling and CompressedScheme pack vertex
// order), which meets the contract only where vertex v carries identifier v,
// as in a nbrlist labeling.
type Layout uint8

// LayoutDegree is the one layout, and the zero value.
const LayoutDegree Layout = 0

// String names the layout: "degree".
func (l Layout) String() string {
	if l == LayoutDegree {
		return "degree"
	}
	return fmt.Sprintf("Layout(%d)", uint8(l))
}
