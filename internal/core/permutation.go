package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitstr"
)

// The permutation block: a slab's rank→vertex order (Layout), run-coded. It
// is the one coding of that order: a label store carries it (labelstore's
// "runs" layout) and the shard-info handshake sends it (adjserve), so both
// sides call AppendPermutation and DecodePermutation.
//
// The encoders lay labels out in identifier order, and identifiers are
// assigned by descending degree with ties in vertex order, so the order is a
// merge of one increasing run of vertices per distinct degree. The block
// splits the order into its maximal increasing runs and names each vertex's
// run:
//
//	R       uvarint              number of runs (0 iff n = 0)
//	lens    R × uvarint          run lengths, each ≥ 1, summing to n
//	runs    ⌈n·b/8⌉ bytes        n fields of b = ⌈log₂ R⌉ bits, MSB first, in
//	                             vertex order: field v is the run holding v;
//	                             the last byte's tail zero
//
// Rank r of run j is its (r − start_j)-th smallest vertex, so the reader
// rebuilds the order by a counting sort and the result is a permutation by
// construction. A power-law graph has O(n^(1/α)) distinct degrees, so the
// block costs ≈ (log₂ n)/α + O(1) bits per vertex where a plain identifier
// block costs ⌈log₂ n⌉. Every run boundary must be a descent and every
// uvarint minimal, so an order has exactly one encoding.

// PermutationRuns returns R, the number of maximal increasing runs of a
// layout permutation — the runs its block names (pllabel reports it).
func PermutationRuns(order []int32) int {
	if len(order) == 0 {
		return 0
	}
	runs := 1
	for r := 1; r < len(order); r++ {
		if order[r] < order[r-1] {
			runs++
		}
	}
	return runs
}

// runFieldsLen is the byte size of n run fields over runs runs.
func runFieldsLen(n, runs int) int { return (n*bitstr.WidthFor(uint64(runs)) + 7) >> 3 }

// AppendPermutation appends order's permutation block to dst and returns the
// extended slice; its length is the block's size (pllabel reports it). Beside
// dst's growth, the run of each vertex is one n-entry table.
func AppendPermutation(dst []byte, order []int32) []byte {
	runs := PermutationRuns(order)
	dst = binary.AppendUvarint(dst, uint64(runs))
	runOf := make([]int32, len(order))
	run, start := int32(0), 0
	for r, v := range order {
		if r > 0 && v < order[r-1] {
			dst = binary.AppendUvarint(dst, uint64(r-start))
			run, start = run+1, r
		}
		runOf[v] = run
	}
	if len(order) > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(order)-start))
	}
	base := len(dst)
	dst = append(dst, make([]byte, runFieldsLen(len(order), runs))...)
	if width := bitstr.WidthFor(uint64(runs)); width > 0 { // one run: every field is empty
		sw := bitstr.NewSlabWriter(dst[base:])
		sw.WriteUints32(runOf, width)
		sw.Flush()
	}
	return dst
}

// DecodePermutation reads the permutation block over n labels at the start of
// block and rebuilds the order: each vertex, in vertex order, goes to its
// run's next rank. It returns the order and the block's size in bytes. Every
// field must name a run, every run receive exactly its declared length, every
// run boundary be a descent, every uvarint be minimal and the padding be
// zero, so a block has one decoding and an order one encoding. A truncated or
// garbage block errors, it never decodes to a wrong order.
//
// The tables the decoder sizes are bounded by the block's length except the
// order itself, 4n bytes: a one-run block is a few bytes at any n, so the
// caller bounds n.
func DecodePermutation(block []byte, n int) ([]int32, int, error) {
	off := 0
	uvarint := func(what string) (uint64, error) {
		v, k := binary.Uvarint(block[off:])
		switch {
		case k <= 0:
			return 0, fmt.Errorf("layout permutation %s: truncated or overlong uvarint", what)
		case k > 1 && block[off+k-1] == 0:
			return 0, fmt.Errorf("layout permutation %s: overlong uvarint", what)
		}
		off += k
		return v, nil
	}
	runs, err := uvarint("run count")
	if err != nil {
		return nil, 0, err
	}
	if runs > uint64(n) || (runs == 0) != (n == 0) || runs > uint64(len(block)-off) {
		// Every run holds a vertex and its length takes a byte: refuse before
		// the count sizes a table.
		return nil, 0, fmt.Errorf("layout permutation of %d labels declares %d runs", n, runs)
	}
	// next[j] is run j's next free rank, end[j] the rank after its last.
	next, end := make([]int, runs), make([]int, runs)
	total := 0
	for j := range next {
		l, err := uvarint("run length")
		if err != nil {
			return nil, 0, err
		}
		if l == 0 || l > uint64(n-total) {
			return nil, 0, fmt.Errorf("layout permutation run %d of length %d, %d of %d labels left", j, l, n-total, n)
		}
		next[j] = total
		total += int(l)
		end[j] = total
	}
	if total != n {
		return nil, 0, fmt.Errorf("layout permutation runs cover %d of %d labels", total, n)
	}
	width := uint(bitstr.WidthFor(runs))
	size := runFieldsLen(n, int(runs))
	if len(block)-off < size {
		return nil, 0, fmt.Errorf("layout permutation run fields: need %d bytes, have %d", size, len(block)-off)
	}
	fields := block[off : off+size]
	order := make([]int32, n)
	for v := range order {
		j := bitstr.IDBlockField(fields, v, width)
		if j >= int(runs) {
			return nil, 0, fmt.Errorf("layout permutation puts label %d in run %d of %d", v, j, runs)
		}
		if next[j] == end[j] {
			return nil, 0, fmt.Errorf("layout permutation run %d holds more labels than its declared length", j)
		}
		order[next[j]] = int32(v)
		next[j]++
	}
	if used := uint(n) * width & 7; used != 0 && fields[size-1]<<used != 0 {
		return nil, 0, fmt.Errorf("layout permutation block ends in nonzero padding")
	}
	for j := 1; j < int(runs); j++ {
		if r := end[j-1]; order[r-1] < order[r] {
			return nil, 0, fmt.Errorf("layout permutation runs %d and %d do not descend at rank %d (runs must be maximal)", j-1, j, r)
		}
	}
	return order, off + size, nil
}
