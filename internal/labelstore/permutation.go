package labelstore

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"repro/internal/bitstr"
)

// The permutation block: a degree-ordered store's rank→label map, run-coded.
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

// PermutationOverheadBytes returns the serialized size of a layout
// permutation block — the header bytes a permuted store carries beyond its
// id-ordered equivalent (pllabel reports it in its summary line).
func PermutationOverheadBytes(order []int32) int {
	runs, lens, start := 0, 0, 0
	for r := 1; r <= len(order); r++ {
		if r == len(order) || order[r] < order[r-1] {
			runs++
			lens += uvarintLen(uint64(r - start))
			start = r
		}
	}
	return uvarintLen(uint64(runs)) + lens + runFieldsLen(len(order), runs)
}

// runFieldsLen is the byte size of n run fields over runs runs.
func runFieldsLen(n, runs int) int { return (n*bitstr.WidthFor(uint64(runs)) + 7) >> 3 }

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// writePermutation writes order's permutation block straight into the
// writer's buffer. The run fields go through a SlabWriter in chunks, a
// multiple of eight fields each so every chunk but the last ends on a byte;
// the writer stores every byte of a chunk whole, so the buffer's stale bytes
// need no clearing. The run of each vertex is one n-entry table, the only
// allocation.
func writePermutation(w *bufio.Writer, order []int32) error {
	runs := PermutationRuns(order)
	if err := writeUvarint(w, uint64(runs)); err != nil {
		return err
	}
	runOf := make([]int32, len(order))
	run, start := int32(0), 0
	for r, v := range order {
		if r > 0 && v < order[r-1] {
			if err := writeUvarint(w, uint64(r-start)); err != nil {
				return err
			}
			run, start = run+1, r
		}
		runOf[v] = run
	}
	if len(order) > 0 {
		if err := writeUvarint(w, uint64(len(order)-start)); err != nil {
			return err
		}
	}
	width := bitstr.WidthFor(uint64(runs))
	if width == 0 { // at most one run: every field is empty
		return nil
	}
	for len(runOf) > 0 {
		if w.Available() < width {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		m := min(len(runOf), w.Available()/width*8)
		buf := w.AvailableBuffer()[:(m*width+7)>>3]
		sw := bitstr.NewSlabWriter(buf)
		sw.WriteUints32(runOf[:m], width)
		sw.Flush()
		if _, err := w.Write(buf); err != nil {
			return err
		}
		runOf = runOf[m:]
	}
	return nil
}

// permutation reads the permutation block over n labels and rebuilds the
// order: each vertex, in vertex order, goes to its run's next rank. Every
// field must name a run, every run receive exactly its declared length, every
// run boundary be a descent and the padding be zero, so a block has one
// decoding and an order one encoding. A truncated or garbage block errors at
// load, it can never mis-answer.
func (p *byteParser) permutation(n int) ([]int32, error) {
	runs, err := p.minimalUvarint("layout permutation run count")
	if err != nil {
		return nil, err
	}
	if runs > uint64(n) || (runs == 0) != (n == 0) || runs > uint64(len(p.data)-p.off) {
		// Every run holds a vertex and its length takes a byte: refuse before
		// the count sizes a table.
		return nil, fmt.Errorf("%w: layout permutation of %d labels declares %d runs", ErrFormat, n, runs)
	}
	// next[j] is run j's next free rank, end[j] the rank after its last.
	next, end := make([]int, runs), make([]int, runs)
	total := 0
	for j := range next {
		l, err := p.minimalUvarint("layout permutation run length")
		if err != nil {
			return nil, err
		}
		if l == 0 || l > uint64(n-total) {
			return nil, fmt.Errorf("%w: layout permutation run %d of length %d, %d of %d labels left", ErrFormat, j, l, n-total, n)
		}
		next[j] = total
		total += int(l)
		end[j] = total
	}
	if total != n {
		return nil, fmt.Errorf("%w: layout permutation runs cover %d of %d labels", ErrFormat, total, n)
	}
	width := uint(bitstr.WidthFor(runs))
	size := runFieldsLen(n, int(runs))
	if err := p.need(size); err != nil {
		return nil, fmt.Errorf("%w: layout permutation run fields: %v", ErrFormat, err)
	}
	block := p.data[p.off : p.off+size]
	p.off += size
	order := make([]int32, n)
	for v := range order {
		j := bitstr.IDBlockField(block, v, width)
		if j >= int(runs) {
			return nil, fmt.Errorf("%w: layout permutation puts label %d in run %d of %d", ErrFormat, v, j, runs)
		}
		if next[j] == end[j] {
			return nil, fmt.Errorf("%w: layout permutation run %d holds more labels than its declared length", ErrFormat, j)
		}
		order[next[j]] = int32(v)
		next[j]++
	}
	if used := uint(n) * width & 7; used != 0 && block[size-1]<<used != 0 {
		return nil, fmt.Errorf("%w: layout permutation block ends in nonzero padding", ErrFormat)
	}
	for j := 1; j < int(runs); j++ {
		if r := end[j-1]; order[r-1] < order[r] {
			return nil, fmt.Errorf("%w: layout permutation runs %d and %d do not descend at rank %d (runs must be maximal)", ErrFormat, j-1, j, r)
		}
	}
	return order, nil
}

// minimalUvarint reads a uvarint that must be in its shortest encoding.
func (p *byteParser) minimalUvarint(what string) (uint64, error) {
	start := p.off
	v, err := p.uvarint(what)
	if err == nil && p.off-start != uvarintLen(v) {
		return 0, fmt.Errorf("%w: %s: overlong uvarint", ErrFormat, what)
	}
	return v, err
}
