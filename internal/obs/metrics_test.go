package obs

import (
	"math/bits"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestBucketIndexBoundaries pins the bucket function at every power-of-two
// boundary: v lands in the smallest bucket whose bound 2^i satisfies v <= 2^i.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, // bucket 0: v <= 1
		{2, 1},         // le=2
		{3, 2}, {4, 2}, // le=4
		{5, 3}, {8, 3}, // le=8
		{9, 4}, {16, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{histMaxFinite, HistogramBuckets - 2},
		{histMaxFinite + 1, HistogramBuckets - 1}, // +Inf overflow
		{int64(1) << 62, HistogramBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Exhaustive invariant over a wide sample: every value is <= its bound
	// and > the previous bucket's bound (finite buckets only).
	for shift := 0; shift < 38; shift++ {
		for _, v := range []int64{(1 << shift) - 1, 1 << shift, (1 << shift) + 1} {
			if v < 1 {
				continue
			}
			i := bucketIndex(v)
			if ub := BucketBound(i); ub >= 0 && v > ub {
				t.Fatalf("v=%d in bucket %d with bound %d", v, i, ub)
			}
			if i > 0 {
				if lb := BucketBound(i - 1); v <= lb {
					t.Fatalf("v=%d in bucket %d but fits bucket %d (bound %d)", v, i, i-1, lb)
				}
			}
		}
	}
	_ = bits.Len64 // keep the import obviously tied to the function under test
}

func TestHistogramCountSum(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 1106 {
		t.Fatalf("sum = %d, want 1106", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %d, want 0", got)
	}
	// 1000 observations uniform in (512, 1024]: all land in the le=1024
	// bucket, so interpolation should spread quantiles across (512, 1024].
	for i := 0; i < 1000; i++ {
		h.Observe(513 + int64(i)%512)
	}
	p50 := h.Quantile(0.50)
	if p50 <= 512 || p50 > 1024 {
		t.Fatalf("p50 = %d, want within (512, 1024]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 1024 {
		t.Fatalf("p99 = %d, want within [p50=%d, 1024]", p99, p50)
	}
	// A bimodal distribution: quantiles must respect bucket ordering.
	var h2 Histogram
	for i := 0; i < 90; i++ {
		h2.Observe(100) // le=128
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1 << 20) // le=2^20
	}
	if p50 := h2.Quantile(0.5); p50 > 128 {
		t.Fatalf("bimodal p50 = %d, want <= 128", p50)
	}
	if p99 := h2.Quantile(0.99); p99 <= 128 {
		t.Fatalf("bimodal p99 = %d, want in the slow mode", p99)
	}
}

func TestHistogramOverflowQuantile(t *testing.T) {
	var h Histogram
	h.Observe(int64(1) << 60)
	if got := h.Quantile(0.99); got != histMaxFinite {
		t.Fatalf("overflow p99 = %d, want saturated %d", got, histMaxFinite)
	}
}

func TestObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Nanosecond)
	if got := h.Sum(); got != 1500 {
		t.Fatalf("sum = %d, want 1500", got)
	}
}

// TestConcurrentObserveAddRender hammers every primitive from many
// goroutines while a renderer scrapes — the -race proof that the metrics
// core is lock-free-safe under fire.
func TestConcurrentObserveAddRender(t *testing.T) {
	reg := NewRegistry()
	var (
		c Counter
		g Gauge
		h Histogram
	)
	reg.Counter("storm_total", "c", &c)
	reg.Gauge("storm_gauge", "g", &g)
	reg.Histogram("storm_ns", "h", &h)

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i%4096) + 1)
			}
		}(w)
	}
	stop := make(chan struct{})
	var renderWG sync.WaitGroup
	renderWG.Add(1)
	go func() {
		defer renderWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Expose()
				_ = h.Quantile(0.99)
			}
		}
	}()
	wg.Wait()
	close(stop)
	renderWG.Wait()

	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramQuantilesEmpty(t *testing.T) {
	var h Histogram
	for i, got := range h.Quantiles(0, 0.5, 0.999, 1) {
		if got != 0 {
			t.Fatalf("empty histogram Quantiles[%d] = %d, want 0", i, got)
		}
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(700) // le=1024 bucket, lower bound 512
	qs := h.Quantiles(0, 0.5, 1)
	for i, got := range qs {
		if got <= 0 || got > 1024 {
			t.Fatalf("single-sample Quantiles[%d] = %d, want within (0, 1024]", i, got)
		}
	}
	// All quantiles of a one-sample histogram live in the same bucket, so
	// they may differ by interpolation but never by more than the bucket.
	if qs[0] > qs[1] || qs[1] > qs[2] {
		t.Fatalf("single-sample quantiles not monotone: %v", qs)
	}
	if got := h.Quantile(1); got > 1024 || got <= 512 {
		t.Fatalf("single-sample p100 = %d, want within its (512, 1024] bucket", got)
	}
}

func TestHistogramQuantileClamp(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) + 1)
	}
	lo, hi := h.Quantile(-0.5), h.Quantile(1.5)
	if want := h.Quantile(0); lo != want {
		t.Fatalf("Quantile(-0.5) = %d, want Quantile(0) = %d", lo, want)
	}
	if want := h.Quantile(1); hi != want {
		t.Fatalf("Quantile(1.5) = %d, want Quantile(1) = %d", hi, want)
	}
}

func TestHistogramOverflowQuantiles(t *testing.T) {
	var h Histogram
	// Half the mass in a finite bucket, half in the overflow: low quantiles
	// are finite, high quantiles saturate at histMaxFinite instead of
	// fabricating values beyond the tracked range.
	for i := 0; i < 50; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 50; i++ {
		h.Observe(int64(1) << 50)
	}
	qs := h.Quantiles(0.25, 0.99)
	if qs[0] > 1024 {
		t.Fatalf("p25 = %d, want within the le=1024 bucket", qs[0])
	}
	if qs[1] != histMaxFinite {
		t.Fatalf("p99 = %d, want saturated %d", qs[1], histMaxFinite)
	}
}

// TestHistogramQuantilesMonotoneUnderLoad verifies the one property Quantiles
// adds over repeated Quantile calls: because all values come from a single
// bucket snapshot, sorted qs yield monotone results even while writers are
// recording. (Repeated Quantile calls each re-snapshot, so a write landing
// between the p50 and p99 reads can legally produce p99 < p50.)
func TestHistogramQuantilesMonotoneUnderLoad(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := int64(w + 1)
			for {
				select {
				case <-stop:
					return
				default:
					// Walk the full finite range so snapshots race with mass
					// moving between distant buckets.
					v = (v*2862933555777941757 + 3037000493) & ((1 << 37) - 1)
					h.Observe(v + 1)
				}
			}
		}(w)
	}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for iter := 0; iter < 200; iter++ {
		got := h.Quantiles(qs...)
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("iter %d: quantiles %v not monotone for qs %v", iter, got, qs)
			}
		}
	}
	close(stop)
	wg.Wait()
}
