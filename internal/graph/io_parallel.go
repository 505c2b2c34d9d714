package graph

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
)

// Parallel edge-list writing
//
// The CSR is vertex-ordered, so writing shards naturally: disjoint vertex
// ranges format into private buffers that are flushed in order, and the
// output bytes are identical to the sequential WriteEdgeList's.

// writeChunkSlots is the per-chunk incidence budget for the parallel
// writer: ~128k incidences format into roughly 1 MiB of text, large enough
// to amortize scheduling, small enough to bound in-flight buffer memory.
const writeChunkSlots = 1 << 17

// WriteEdgeListParallel writes the same bytes as WriteEdgeList, formatting
// edge-balanced vertex ranges concurrently on workers goroutines
// (workers <= 0 means GOMAXPROCS) and flushing the per-range buffers in
// vertex order.
func (g *Graph) WriteEdgeListParallel(w io.Writer, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return g.WriteEdgeList(w)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# n %d m %d\n", g.n, g.M()); err != nil {
		return err
	}
	parts := int(g.offsets[g.n]/writeChunkSlots) + 1
	cuts := balancedRanges(g.offsets, parts)
	chunks := len(cuts) - 1
	// Workers format chunks pulled from a shared counter; the merge loop
	// below receives each chunk's buffer in vertex order. The semaphore
	// bounds in-flight formatted buffers (it is released only after a
	// buffer is written), so memory stays O(workers) buffers even when one
	// chunk formats slowly.
	sem := make(chan struct{}, workers+1)
	out := make([]chan []byte, chunks)
	for i := range out {
		out[i] = make(chan []byte, 1)
	}
	next := make(chan int, chunks)
	for i := 0; i < chunks; i++ {
		next <- i
	}
	close(next)
	for wk := 0; wk < workers; wk++ {
		go func() {
			for i := range next {
				sem <- struct{}{}
				buf := make([]byte, 0, writeChunkSlots*8)
				for u := cuts[i]; u < cuts[i+1]; u++ {
					for _, v := range g.Neighbors(u) {
						if int(v) > u {
							buf = strconv.AppendInt(buf, int64(u), 10)
							buf = append(buf, ' ')
							buf = strconv.AppendInt(buf, int64(v), 10)
							buf = append(buf, '\n')
						}
					}
				}
				out[i] <- buf
			}
		}()
	}
	var werr error
	for i := 0; i < chunks; i++ {
		buf := <-out[i]
		if werr == nil {
			if _, err := bw.Write(buf); err != nil {
				werr = err
			}
		}
		<-sem
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
