// Package obs is the repo's dependency-free observability core: lock-free
// counters, gauges and fixed-bucket latency histograms, a Registry that
// renders the Prometheus text exposition format, a process/runtime metrics
// collector, and an HTTP admin server mounting /metrics, /healthz, /readyz
// and net/http/pprof.
//
// The design constraint that shapes everything here is the serving tier's
// zero-allocation guarantee: instrumenting a hot path must not cost an
// allocation or a lock. Every metric value is therefore a plain struct of
// atomics whose zero value is ready to use — components embed them directly
// and update them unconditionally; a Registry only attaches names at startup
// and reads the same atomics at scrape time. Histogram.Observe is a single
// atomic add on a power-of-two bucket plus one on the running sum: no
// buckets slice, no mutex, no time.Time boxing.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe for concurrent callers.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0 for the rendered series to
// stay monotone; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to use;
// all methods are safe for concurrent callers.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistogramBuckets is the fixed bucket count of every Histogram. Bucket i
// (i < HistogramBuckets-1) has upper bound 2^i; the last bucket is the +Inf
// overflow. With 40 buckets the finite range covers 1ns .. ~4.6 minutes when
// observing nanoseconds, which spans every latency this repo measures.
const HistogramBuckets = 40

// histMaxFinite is the upper bound of the last finite bucket.
const histMaxFinite = int64(1) << (HistogramBuckets - 2)

// Histogram is a lock-free latency histogram with fixed power-of-two bucket
// bounds. Values are dimensionless int64s; by convention this repo observes
// durations in nanoseconds. The zero value is ready to use; Observe is one
// atomic add on the bucket counter plus one on the running sum — no locks,
// no allocation, safe for any number of concurrent observers.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Int64
	sum     atomic.Int64
	// exemplars[i] holds the trace id most recently observed into bucket i
	// (0: none). Written only by ObserveExemplar, so histograms that never
	// see traced traffic pay nothing beyond the struct space; rendered by
	// /debug/traces, never by the Prometheus text exposition.
	exemplars [HistogramBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket: the smallest i with v <= 2^i,
// capped at the overflow bucket. Branch-free except for the two clamps.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= HistogramBuckets-1 {
		return HistogramBuckets - 1
	}
	return i
}

// BucketBound returns bucket i's upper bound (2^i), or -1 for the +Inf
// overflow bucket.
func BucketBound(i int) int64 {
	if i >= HistogramBuckets-1 {
		return -1
	}
	return int64(1) << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveExemplar records one value and stamps its bucket's exemplar with
// traceID, linking the latency bucket to a concrete trace: one extra atomic
// store over Observe, still lock-free and allocation-free.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	i := bucketIndex(v)
	h.buckets[i].Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[i].Store(traceID)
	}
}

// Exemplar returns the trace id last observed into bucket i, or 0 if none.
func (h *Histogram) Exemplar(i int) uint64 {
	if i < 0 || i >= HistogramBuckets {
		return 0
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations (the sum over all buckets). Taken
// while observations are in flight it is consistent per bucket, not across
// buckets — fine for monitoring, which only ever sees a histogram in motion.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshot loads all buckets once, so a render or quantile walk works over
// one consistent-enough view instead of re-loading atomics.
func (h *Histogram) snapshot() (b [HistogramBuckets]int64, total int64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// Quantile extracts the q-th quantile (0 <= q <= 1) from the bucket counts,
// linearly interpolating inside the bucket that straddles the target rank.
// Observations in the +Inf bucket are attributed to the last finite bound,
// so an overflow-heavy histogram reports a (clearly saturated) 2^38 rather
// than fabricating larger values. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	b, total := h.snapshot()
	return quantileFrom(&b, total, q)
}

// Quantiles extracts several quantiles from one snapshot, so the returned
// values are mutually consistent (and monotone for sorted qs) even while
// observations are being recorded concurrently — calling Quantile repeatedly
// instead re-snapshots each time and can report p99 < p50 across the calls.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	b, total := h.snapshot()
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = quantileFrom(&b, total, q)
	}
	return out
}

// quantileFrom is the quantile walk over one pre-taken snapshot.
func quantileFrom(b *[HistogramBuckets]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, n := range b {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lower := int64(0)
			if i > 0 {
				lower = int64(1) << uint(i-1)
			}
			upper := BucketBound(i)
			if upper < 0 { // +Inf bucket: report the last finite bound
				return histMaxFinite
			}
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / float64(n)
			}
			return lower + int64(frac*float64(upper-lower))
		}
		cum = next
	}
	return histMaxFinite
}
