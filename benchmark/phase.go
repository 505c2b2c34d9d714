package main

import (
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// querier is the part of *adjserve.Client the closed loop drives. With a nil
// tally the Trace methods are the plain AdjacentMany/DistMany calls. Tests
// substitute one that fails on purpose.
type querier interface {
	AdjacentManyTrace(pairs [][2]int, out []bool, t *obs.SpanTally) ([]bool, error)
	DistManyTrace(pairs [][2]int, out []int, t *obs.SpanTally) ([]int, error)
	Close() error
}

// answers is one caller's reusable answer buffers.
type answers struct {
	adj []bool
	hop []int
}

// callFrame sends ring frame f and checks every decoded answer against the
// oracle, returning how many differ.
func callFrame(c querier, dist bool, r *ring, f int, a *answers, t *obs.SpanTally) (wrong int, err error) {
	if dist {
		if a.hop, err = c.DistManyTrace(r.frame(f), a.hop[:0], t); err != nil {
			return 0, err
		}
		return mismatches(frameOf(r.wantHop, f, r.batch), a.hop), nil
	}
	if a.adj, err = c.AdjacentManyTrace(r.frame(f), a.adj[:0], t); err != nil {
		return 0, err
	}
	return mismatches(frameOf(r.wantAdj, f, r.batch), a.adj), nil
}

// phaseShape is the timing of one closed-loop phase: slices of equal length,
// each on its own monotonic base, with a window of the reference kernel
// before the first, between neighbours, and after the last.
type phaseShape struct {
	slice  time.Duration
	slices int
}

func (s phaseShape) measured() time.Duration { return time.Duration(s.slices) * s.slice }

// harnessGuard bounds how long past its end a slice may hang on a reply
// before the harness cuts the connections and counts the frames as failed.
const harnessGuard = 10 * time.Second

// recorder is one caller goroutine's private state across the slices of a
// phase. Every array is sized before the phase starts; record and fold never
// allocate and never touch memory another goroutine writes.
type recorder struct {
	next   int             // the ring frame this caller sends next
	pairs  []int64         // verified pairs, per slice
	done   []time.Duration // when the caller's last frame of the slice completed, from the slice's base
	lat    []uint32        // frame latencies in ns, in completion order
	latEnd []int           // lat[:latEnd[s]] are the samples of slices 0..s

	attempted, failed int64 // frames
	dropped           int64 // latency samples that did not fit lat

	stages *stageAgg // traced phases only
	tally  obs.SpanTally

	answers answers
}

func newRecorder(first, slices, latCap int, traced bool, shards int) *recorder {
	r := &recorder{
		next:   first,
		pairs:  make([]int64, slices),
		done:   make([]time.Duration, slices),
		lat:    make([]uint32, 0, latCap),
		latEnd: make([]int, slices),
	}
	if traced {
		r.stages = newStageAgg(latCap, shards)
	}
	return r
}

// record accounts one frame of slice s that was sent at t0 and whose answers
// were decoded at t1, both from the slice's base. A failed frame counts
// against failed_frac and toward nothing else.
func (r *recorder) record(s int, t0, t1 time.Duration, pairs int, failed bool) {
	r.attempted++
	if failed {
		r.failed++
		return
	}
	r.pairs[s] += int64(pairs)
	r.done[s] = t1
	if len(r.lat) == cap(r.lat) {
		r.dropped++
		return
	}
	r.lat = append(r.lat, uint32(min(t1-t0, 1<<32-1)))
	r.latEnd[s] = len(r.lat)
}

// sliceLat returns the samples of slice s.
func (r *recorder) sliceLat(s int) []uint32 {
	lo := 0
	for p := s - 1; p >= 0 && lo == 0; p-- {
		lo = r.latEnd[p] // the nearest earlier slice that recorded anything
	}
	return r.lat[lo:max(lo, r.latEnd[s])]
}

// hostUse is what the process spent on a stretch of work.
type hostUse struct {
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	cpuNs     int64
	maxRSSKB  int64
}

type hostMark struct {
	ms runtime.MemStats
	ru syscall.Rusage
}

func markHost() hostMark {
	var m hostMark
	runtime.ReadMemStats(&m.ms)
	syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return m
}

// since adds to u what the process spent between m and now.
func (u *hostUse) since(m hostMark) {
	now := markHost()
	u.mallocs += now.ms.Mallocs - m.ms.Mallocs
	u.gcCycles += now.ms.NumGC - m.ms.NumGC
	u.gcPauseNs += now.ms.PauseTotalNs - m.ms.PauseTotalNs
	u.cpuNs += cpuNs(&now.ru) - cpuNs(&m.ru)
	u.maxRSSKB = now.ru.Maxrss
}

func cpuNs(ru *syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// phaseResult is one phase, aggregated over its callers.
type phaseResult struct {
	shape             phaseShape
	attempted, failed int64
	pairs, frames     int64     // verified, over all slices
	slicePairsPerS    []float64 // per slice: pairs over the slice's own wall time
	sliceRefNs        []float64 // per slice: the reference kernel's ns per load around it; 0 without a kernel
	p50, p90, p99     []float64 // per slice, µs
	samples           int
	dropped           int64
	host              hostUse // over the slices, reference windows excluded
	trace             *traceSummary
}

func (p *phaseResult) pairsPerS() float64 { return median(p.slicePairsPerS) }

// slicePairsPerKref is each slice's throughput in the host's own unit: pairs
// answered in the time the reference kernel around that slice needed for a
// thousand loads.
func (p *phaseResult) slicePairsPerKref() []float64 {
	out := make([]float64, len(p.slicePairsPerS))
	for s, perS := range p.slicePairsPerS {
		out[s] = perS * p.sliceRefNs[s] * 1e-6 // pairs/s × ns/load × 1e-9 s/ns × 1e3 loads/kref
	}
	return out
}

func (p *phaseResult) pairsPerKref() float64 { return median(p.slicePairsPerKref()) }

// framesPerS is the measured frame rate, for sizing the next phase's arrays.
func (p *phaseResult) framesPerS() float64 {
	return float64(p.frames) / p.shape.measured().Seconds()
}

// latCapFor sizes a caller's latency array for a phase of the given shape at
// twice the frame rate the previous phase achieved.
func latCapFor(prev *phaseResult, shape phaseShape) int {
	return int(2*prev.framesPerS()*shape.measured().Seconds())/(conns*callers) + 4096
}

// runPhase drives the closed loop: conns × callers goroutines per slice, each
// walking its own stride of ring frames, each waiting for a frame's verified
// answers before sending its next. clients has one querier per connection;
// ref, when not nil, is timed around every slice.
func runPhase(clients []querier, w workload, r *ring, shape phaseShape, latCap int, traced bool, ref *refKernel) *phaseResult {
	workers := len(clients) * callers
	recs := make([]*recorder, workers)
	for i := range recs {
		recs[i] = newRecorder(i, shape.slices, latCap, traced, w.shards)
	}
	p := &phaseResult{
		shape:          shape,
		slicePairsPerS: make([]float64, shape.slices),
		sliceRefNs:     make([]float64, shape.slices),
		p50:            make([]float64, shape.slices),
		p90:            make([]float64, shape.slices),
		p99:            make([]float64, shape.slices),
	}
	refBefore := 0.0
	if ref != nil {
		refBefore = ref.run()
	}
	for s := 0; s < shape.slices; s++ {
		mark := markHost()
		runSlice(clients, recs, s, w, r, shape.slice, traced)
		p.host.since(mark)
		if ref != nil {
			refAfter := ref.run()
			p.sliceRefNs[s] = (refBefore + refAfter) / 2
			refBefore = refAfter
		}
	}

	var scratch []uint32
	for s := 0; s < shape.slices; s++ {
		scratch = scratch[:0]
		var (
			pairs int64
			wall  = shape.slice
		)
		for _, rec := range recs {
			pairs += rec.pairs[s]
			wall = max(wall, rec.done[s])
			scratch = append(scratch, rec.sliceLat(s)...)
		}
		slices.Sort(scratch)
		p.pairs += pairs
		p.samples += len(scratch)
		p.slicePairsPerS[s] = float64(pairs) / wall.Seconds()
		p.p50[s] = quantileSorted(scratch, 0.50) / 1e3
		p.p90[s] = quantileSorted(scratch, 0.90) / 1e3
		p.p99[s] = quantileSorted(scratch, 0.99) / 1e3
	}
	p.frames = p.pairs / int64(r.batch)
	for _, rec := range recs {
		p.attempted += rec.attempted
		p.failed += rec.failed
		p.dropped += rec.dropped
	}
	if traced {
		aggs := make([]*stageAgg, len(recs))
		for i, rec := range recs {
			aggs[i] = rec.stages
		}
		p.trace = summarizeStages(aggs)
	}
	return p
}

// runSlice runs slice s: every caller sends frames until the slice's time is
// up, and the slice ends when the last frame in flight has been answered.
func runSlice(clients []querier, recs []*recorder, s int, w workload, r *ring, length time.Duration, traced bool) {
	guard := time.AfterFunc(length+harnessGuard, func() {
		for _, c := range clients {
			c.Close()
		}
	})
	defer guard.Stop()
	var wg sync.WaitGroup
	base := time.Now()
	for i, rec := range recs {
		wg.Add(1)
		go func(c querier, rec *recorder) {
			defer wg.Done()
			var tally *obs.SpanTally
			if traced {
				tally = &rec.tally
			}
			for frames := r.frames(); ; rec.next = (rec.next + len(recs)) % frames {
				t0 := time.Since(base)
				if t0 >= length {
					return
				}
				if traced {
					tally.Reset()
				}
				wrong, err := callFrame(c, w.dist, r, rec.next, &rec.answers, tally)
				t1 := time.Since(base)
				failed := err != nil || wrong != 0
				rec.record(s, t0, t1, r.batch, failed)
				if traced && !failed {
					rec.stages.fold(tally, int64(t1-t0))
				}
			}
		}(clients[i/callers], rec)
	}
	wg.Wait()
}
