package main

import (
	"time"
)

// refKernel is the benchmark's yardstick for the host: a fixed piece of work
// that belongs to the benchmark and never changes with the repo, timed in
// short windows between the slices of a phase. It gathers 8-byte words from
// pseudo-random places in a 64 MiB table, the loads independent of each other,
// on as many goroutines as the closed loop keeps cores busy — so, like the
// serving path, it runs at the speed the host's memory hierarchy allows with
// several misses in flight. On the shared 2-vCPU builder box that speed moves
// by 1.4× between hours (neighbours on the memory controller) and the
// workloads move with it, by 1.1× to 2×; dividing a slice's throughput by the
// yardstick's speed around it takes most of that out (README.md, "Noise").
type refKernel struct {
	table []uint64
	index []uint32
	d     time.Duration // length of one window
	sink  uint64
}

const (
	refTableWords = 1 << 23 // 64 MiB: past any cache level a guest can count on
	refIndexes    = 1 << 16
	refThreads    = 2 // the closed loop keeps two cores busy
)

// newRefKernel fills the table and the index list from a fixed linear
// congruential sequence: every run of every workload gathers the same words
// in the same order.
func newRefKernel(d time.Duration) *refKernel {
	k := &refKernel{table: make([]uint64, refTableWords), index: make([]uint32, refIndexes), d: d}
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := range k.table {
		k.table[i] = next()
	}
	for i := range k.index {
		k.index[i] = uint32(next() >> 33)
	}
	return k
}

// gather runs one goroutine's share of a window and returns ns per load. Each
// pass shifts every index by a new offset, so a pass touches 64 Ki fresh cache
// lines spread over the whole table.
func (k *refKernel) gather(offset uint32) (nsPerLoad float64, sum uint64) {
	const mask = refTableWords - 1
	loads := 0
	start := time.Now()
	for loads == 0 || time.Since(start) < k.d {
		for _, ix := range k.index {
			sum += k.table[(ix+offset)&mask]
		}
		offset += 0x9E3779B1
		loads += len(k.index)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(loads), sum
}

// run times one window on refThreads goroutines at once and returns their
// mean ns per load.
func (k *refKernel) run() float64 {
	type reading struct {
		ns  float64
		sum uint64
	}
	readings := make(chan reading, refThreads) // one send per goroutine
	for t := 0; t < refThreads; t++ {
		go func(offset uint32) {
			ns, sum := k.gather(offset)
			readings <- reading{ns, sum}
		}(uint32(t) * 0x51ED27)
	}
	var ns float64
	for t := 0; t < refThreads; t++ {
		r := <-readings
		ns += r.ns
		k.sink += r.sum // keeps the loads live past the optimiser
	}
	return ns / refThreads
}
