package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanTallyBasics(t *testing.T) {
	var tally SpanTally
	if tally.Len() != 0 {
		t.Fatalf("zero tally Len = %d", tally.Len())
	}
	tally.Add(StageEncode, HopSelf, 10)
	tally.Add(StageNet, HopSelf, 20)
	tally.Add(StageProbe, HopPeer, 30)
	tally.Add(StageProbe, 2, 40)
	if tally.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tally.Len())
	}
	if got := tally.SumHop(HopSelf); got != 30 {
		t.Errorf("SumHop(self) = %d, want 30", got)
	}
	if got := tally.SumHop(HopPeer); got != 30 {
		t.Errorf("SumHop(peer) = %d, want 30", got)
	}
	if got := tally.SumHop(2); got != 40 {
		t.Errorf("SumHop(2) = %d, want 40", got)
	}
	tally.Reset()
	if tally.Len() != 0 || tally.ID != 0 {
		t.Errorf("Reset left Len=%d ID=%d", tally.Len(), tally.ID)
	}
}

func TestSpanTallyOverflowDrops(t *testing.T) {
	var tally SpanTally
	for i := 0; i < TraceMaxStages+10; i++ {
		tally.Add(StageProbe, HopSelf, 1)
	}
	if tally.Len() != TraceMaxStages {
		t.Fatalf("Len = %d, want cap %d", tally.Len(), TraceMaxStages)
	}
}

func TestTraceRingSnapshotNewestFirst(t *testing.T) {
	r := NewTraceRing(4)
	if got := r.Snapshot(nil); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d entries", len(got))
	}
	for i := 1; i <= 6; i++ { // wraps: slots hold 3,4,5,6
		tr := Trace{ID: uint64(i), TotalNs: int64(i)}
		r.Put(&tr)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	snap := r.Snapshot(nil)
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(snap))
	}
	for i, wantID := range []uint64{6, 5, 4, 3} {
		if snap[i].ID != wantID {
			t.Errorf("snapshot[%d].ID = %d, want %d (newest first)", i, snap[i].ID, wantID)
		}
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := Trace{ID: uint64(w + 1)}
			for i := 0; i < 2000; i++ {
				tr.TotalNs = int64(i)
				r.Put(&tr)
			}
		}(w)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range r.Snapshot(nil) {
				if tr.ID == 0 || tr.ID > 4 {
					t.Errorf("torn trace surfaced: id=%d", tr.ID)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()
}

func TestTraceSinkPolicies(t *testing.T) {
	var nilSink *TraceSink
	if nilSink.SampleNow() {
		t.Error("nil sink samples")
	}
	if nilSink.SlowThreshold() != 0 {
		t.Error("nil sink has a slow threshold")
	}
	nilSink.Deposit(&Trace{})     // must not panic
	nilSink.DepositSlow(&Trace{}) // must not panic

	s := &TraceSink{Ring: NewTraceRing(8), Slow: NewTraceRing(8), SampleEvery: 3, SlowNs: 100}
	hits := 0
	for i := 0; i < 9; i++ {
		if s.SampleNow() {
			hits++
		}
	}
	if hits != 3 {
		t.Errorf("SampleEvery=3 over 9 frames sampled %d, want 3", hits)
	}
	if got := s.SlowThreshold(); got != 100 {
		t.Errorf("SlowThreshold = %d, want 100", got)
	}

	var slowSeen *Trace
	s.OnSlow = func(tr *Trace) { slowSeen = tr }
	tr := Trace{ID: 7, TotalNs: 150}
	s.Deposit(&tr)
	s.DepositSlow(&tr)
	if s.Sampled.Load() != 1 || s.SlowHits.Load() != 1 {
		t.Errorf("counters = %d/%d, want 1/1", s.Sampled.Load(), s.SlowHits.Load())
	}
	if slowSeen == nil || slowSeen.ID != 7 {
		t.Errorf("OnSlow saw %+v, want id 7", slowSeen)
	}
	if s.Ring.Len() != 1 || s.Slow.Len() != 1 {
		t.Errorf("rings hold %d/%d, want 1/1", s.Ring.Len(), s.Slow.Len())
	}
}

func TestNewTraceID(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTraceIDFormat(t *testing.T) {
	if got := TraceID(0); got != "0000000000000000" {
		t.Errorf("TraceID(0) = %q", got)
	}
	if got := TraceID(0xdeadbeef12345678); got != "deadbeef12345678" {
		t.Errorf("TraceID = %q, want deadbeef12345678", got)
	}
	if got := TraceID(0xf); got != "000000000000000f" {
		t.Errorf("TraceID(0xf) = %q (must be fixed-width)", got)
	}
}

func TestWriteTracesJSON(t *testing.T) {
	ring := NewTraceRing(4)
	var tally SpanTally
	tally.ID = 0xabc
	tally.Add(StageProbe, HopSelf, 123)
	tally.Add(StageNet, 2, 456)
	var tr Trace
	tr.Fill(&tally, 1, 64, 600)
	ring.Put(&tr)

	reg := NewRegistry()
	var h Histogram
	reg.Histogram("trace_test_latency_ns", "Test latency.", &h)
	h.ObserveExemplar(1000, 0xabc)

	var sb strings.Builder
	if err := WriteTracesJSON(&sb, ring, reg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Pairs   int64  `json:"pairs"`
			TotalNs int64  `json:"total_ns"`
			Stages  []struct {
				Stage string `json:"stage"`
				Hop   string `json:"hop"`
				Ns    int64  `json:"ns"`
			} `json:"stages"`
		} `json:"traces"`
		Exemplars []struct {
			Metric  string `json:"metric"`
			TraceID string `json:"trace_id"`
		} `json:"exemplars"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("%d traces, want 1", len(doc.Traces))
	}
	got := doc.Traces[0]
	if got.TraceID != TraceID(0xabc) || got.Pairs != 64 || got.TotalNs != 600 {
		t.Errorf("trace = %+v", got)
	}
	if len(got.Stages) != 2 || got.Stages[0].Stage != "probe" || got.Stages[0].Hop != "local" ||
		got.Stages[1].Stage != "net" || got.Stages[1].Hop != "shard2" {
		t.Errorf("stages = %+v", got.Stages)
	}
	if len(doc.Exemplars) != 1 || doc.Exemplars[0].Metric != "trace_test_latency_ns" ||
		doc.Exemplars[0].TraceID != TraceID(0xabc) {
		t.Errorf("exemplars = %+v", doc.Exemplars)
	}

	// A nil ring and nil registry still render a valid empty document.
	sb.Reset()
	if err := WriteTracesJSON(&sb, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traces": []`) {
		t.Errorf("empty doc = %s", sb.String())
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(5, 0x1) // bucket for 5ns
	h.ObserveExemplar(5, 0x2) // same bucket: last id wins
	h.Observe(5)              // plain observe must not clear it
	h.ObserveExemplar(1<<30, 0x3)
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	i := bucketIndex(5)
	if got := h.Exemplar(i); got != 0x2 {
		t.Errorf("Exemplar(bucket of 5) = %#x, want 0x2", got)
	}
	if got := h.Exemplar(bucketIndex(1 << 30)); got != 0x3 {
		t.Errorf("Exemplar(bucket of 2^30) = %#x, want 0x3", got)
	}
	if got := h.Exemplar(-1); got != 0 {
		t.Errorf("Exemplar(-1) = %#x, want 0", got)
	}
	if got := h.Exemplar(HistogramBuckets); got != 0 {
		t.Errorf("Exemplar(out of range) = %#x, want 0", got)
	}
	// ObserveExemplar with id 0 must not erase the stored exemplar.
	h.ObserveExemplar(5, 0)
	if got := h.Exemplar(i); got != 0x2 {
		t.Errorf("Exemplar after id-0 observe = %#x, want 0x2", got)
	}
}

func TestRegistryExemplars(t *testing.T) {
	reg := NewRegistry()
	var plain, traced Histogram
	var c Counter
	reg.Counter("reg_ex_total", "c.", &c)
	reg.Histogram("reg_ex_plain_ns", "plain.", &plain)
	reg.Histogram("reg_ex_traced_ns", "traced.", &traced, "shard", "0")
	plain.Observe(10)
	traced.ObserveExemplar(10, 0xbeef)
	refs := reg.Exemplars()
	if len(refs) != 1 {
		t.Fatalf("%d exemplar refs, want 1: %+v", len(refs), refs)
	}
	ref := refs[0]
	if ref.Name != "reg_ex_traced_ns" || ref.TraceID != 0xbeef {
		t.Errorf("ref = %+v", ref)
	}
	if ref.Labels == "" || !strings.Contains(ref.Labels, "shard") {
		t.Errorf("ref labels = %q, want shard label", ref.Labels)
	}
	if ref.BucketLe < 10 {
		t.Errorf("bucket upper bound %d < observed 10", ref.BucketLe)
	}
	// The Prometheus text exposition is unchanged by exemplars.
	if strings.Contains(reg.Expose(), "exemplar") {
		t.Error("text exposition leaks exemplars")
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg, "scheme", "fatthin", "layout", "degree")
	out := reg.Expose()
	if !strings.Contains(out, "plabel_build_info{") {
		t.Fatalf("missing plabel_build_info:\n%s", out)
	}
	for _, want := range []string{`revision="`, `goversion="go`, `scheme="fatthin"`, `layout="degree"`} {
		if !strings.Contains(out, want) {
			t.Errorf("build info missing %s:\n%s", want, out)
		}
	}
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "plabel_build_info{") {
			line = l
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("build info gauge = %q, want value 1", line)
	}
}
