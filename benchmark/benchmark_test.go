package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

func TestEstimators(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	for q, want := range map[float64]float64{0: 10, 0.5: 60, 0.9: 100, 1: 110} {
		if got := quantileSorted(sorted, q); got != want {
			t.Errorf("quantileSorted(%v) = %v, want %v", q, got, want)
		}
	}
	// Reference values from Python's statistics.quantiles(values, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{30, 10, 20}, 10, 30},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrFrac = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// smokeRing builds a smoke-sized workload's graph and oracle-filled ring.
func smokeRing(t *testing.T, name string, seed int64) (workload, *ring) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w, _ = smoke(w)
	g, err := gen.ChungLuPowerLawParallel(1<<w.logN, alpha, wmin, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := buildRing(w, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	r.fillAdjOracle(g)
	return w, r
}

func TestRingDeterminism(t *testing.T) {
	_, a := smokeRing(t, "direct_b64_zipf", 3)
	_, b := smokeRing(t, "direct_b64_zipf", 3)
	_, c := smokeRing(t, "direct_b64_zipf", 4)
	if !slices.Equal(a.pairs, b.pairs) || !slices.Equal(a.wantAdj, b.wantAdj) {
		t.Error("one seed built two different rings")
	}
	if slices.Equal(a.pairs, c.pairs) {
		t.Error("two seeds built the same ring")
	}
	if a.frames()*a.batch != len(a.pairs) {
		t.Errorf("%d frames of %d pairs do not tile a ring of %d", a.frames(), a.batch, len(a.pairs))
	}
}

// TestMemConnPipelined drives one client over the in-memory conn with four
// pipelined callers and checks every answer against both the oracle and the
// same frames fetched over loopback TCP.
func TestMemConnPipelined(t *testing.T) {
	w, r := smokeRing(t, "direct_b64_zipf", 5)
	g, err := gen.ChungLuPowerLawParallel(1<<w.logN, alpha, wmin, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	scheme := core.NewPowerLawScheme(alpha)
	lab, err := scheme.EncodeParallel(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewQueryEngine(lab)
	if err != nil {
		t.Fatal(err)
	}
	srv := adjserve.NewServer(eng, 0)
	ml := newMemListener()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpSrv := adjserve.NewServer(eng, 0)
	var serving sync.WaitGroup
	serving.Add(2)
	go func() { defer serving.Done(); srv.Serve(ml) }()
	go func() { defer serving.Done(); tcpSrv.Serve(tl) }()
	defer func() {
		srv.Close()
		tcpSrv.Close()
		serving.Wait()
	}()

	mem := adjserve.NewClient("mem")
	mem.DialFunc = ml.Dial
	defer mem.Close()
	tcp := adjserve.NewClient(tl.Addr().String())
	defer tcp.Close()

	const pipelined = 4
	var wg sync.WaitGroup
	for c := 0; c < pipelined; c++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			var viaMem, viaTCP []bool
			for f := first; f < r.frames(); f += pipelined {
				var err error
				if viaMem, err = mem.AdjacentMany(r.frame(f), viaMem[:0]); err != nil {
					t.Errorf("frame %d over memory: %v", f, err)
					return
				}
				if viaTCP, err = tcp.AdjacentMany(r.frame(f), viaTCP[:0]); err != nil {
					t.Errorf("frame %d over TCP: %v", f, err)
					return
				}
				if !slices.Equal(viaMem, viaTCP) {
					t.Errorf("frame %d: memory and TCP answers differ", f)
				}
				if wrong := mismatches(frameOf(r.wantAdj, f, r.batch), viaMem); wrong != 0 {
					t.Errorf("frame %d: %d answers differ from the oracle", f, wrong)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestMemConnDeadlineAndClose pins the two behaviours adjserve's drain needs
// from a conn: a read deadline wakes a blocked reader, and closing one end
// gives the other end-of-stream after the buffered bytes.
func TestMemConnDeadlineAndClose(t *testing.T) {
	ml := newMemListener()
	defer ml.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ml.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := ml.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted

	woke := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 1))
		woke <- err
	}()
	server.SetReadDeadline(time.Now())
	if err := <-woke; !os.IsTimeout(err) {
		t.Errorf("blocked read woke with %v, want a timeout", err)
	}
	server.SetReadDeadline(time.Time{})

	big := bytes.Repeat([]byte{7}, memBufSize+1000) // wraps the ring and blocks until drained
	go func() {
		client.Write(big)
		client.Close()
	}()
	var got bytes.Buffer
	if _, err := got.ReadFrom(server); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), big) {
		t.Errorf("read %d bytes back, wrote %d", got.Len(), len(big))
	}
}

// TestRecordPathZeroAlloc: what a caller goroutine does per frame beside the
// call itself must not allocate.
func TestRecordPathZeroAlloc(t *testing.T) {
	rec := newRecorder(0, 4, 1<<12, true, 3)
	var tally obs.SpanTally
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		at += time.Millisecond
		rec.record(int(at/time.Second), at, at+50*time.Microsecond, 64, false)
		tally.Reset()
		tally.Add(obs.StageEncode, obs.HopSelf, 10)
		tally.Add(obs.StageNet, obs.HopSelf, 20)
		tally.Add(obs.StageUpstream, obs.HopPeer, 30)
		tally.Add(obs.StageProbe, 2, 5)
		rec.stages.fold(&tally, 70)
	})
	if allocs != 0 {
		t.Errorf("record path allocates %v times per frame", allocs)
	}
	if rec.attempted != 1001 || rec.pairs[0] == 0 || rec.stages.topNs != 1001*60 {
		t.Errorf("recorder lost frames: attempted %d, slice 0 pairs %d, top-level ns %d", rec.attempted, rec.pairs[0], rec.stages.topNs)
	}
}

func TestRecorderSlices(t *testing.T) {
	rec := newRecorder(0, 3, 3, false, 0)
	rec.record(0, 5, 20, 64, false)
	rec.record(0, 20, 109, 64, false) // sent inside the slice, answered after its time was up
	rec.record(2, 40, 50, 64, false)  // slice 1 stays empty
	rec.record(2, 60, 80, 64, true)   // failed: counted, not measured
	rec.record(2, 80, 95, 64, false)  // a sample more than the array holds
	if rec.attempted != 5 || rec.failed != 1 || rec.dropped != 1 {
		t.Errorf("attempted %d failed %d dropped %d, want 5, 1 and 1", rec.attempted, rec.failed, rec.dropped)
	}
	if !slices.Equal(rec.done, []time.Duration{109, 0, 95}) {
		t.Errorf("slice ends %v, want [109 0 95]", rec.done)
	}
	if !slices.Equal(rec.pairs, []int64{128, 0, 128}) {
		t.Errorf("slice pairs %v, want [128 0 128]", rec.pairs)
	}
	for s, want := range [][]uint32{{15, 89}, {}, {10}} {
		if got := rec.sliceLat(s); !slices.Equal(got, want) {
			t.Errorf("slice %d latencies %v, want %v", s, got, want)
		}
	}
}

// report is one run's printed output, parsed.
type report struct {
	lines  map[string]float64 // every "name value unit" line
	units  map[string]string
	result result
}

func runSmoke(t *testing.T, opt options) (report, bool) {
	t.Helper()
	opt.smoke, opt.dir = true, t.TempDir()
	var out bytes.Buffer
	correct, err := run(opt, &out)
	if err != nil {
		t.Fatalf("%s: %v", opt.workload, err)
	}
	rep := report{lines: map[string]float64{}, units: map[string]string{}}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines[:len(lines)-2] {
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[1], 64)
		if len(f) != 3 || err != nil {
			t.Fatalf("%s: line %q is not \"name value unit\"", opt.workload, line)
		}
		rep.lines[f[0]], rep.units[f[0]] = v, f[2]
	}
	var st stamp
	if stampLine, ok := strings.CutPrefix(lines[len(lines)-2], "stamp "); !ok || json.Unmarshal([]byte(stampLine), &st) != nil {
		t.Fatalf("%s: no stamp before the result: %q", opt.workload, lines[len(lines)-2])
	}
	if st.GoVersion == "" || st.N != 1<<12 || st.Seed != opt.seed || st.WallS["measured"] == 0 || len(st.SlicePairsPerS) != 2 {
		t.Errorf("%s: stamp is missing fields: %+v", opt.workload, st)
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep.result); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", opt.workload, err)
	}
	return rep, correct
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractFile holds BENCHMARK.json to the limits the driver enforces
// before it runs anything, and to the workloads this package implements.
func TestContractFile(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, ms []contractMetric, bounded bool) {
		for _, m := range ms {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %s has malformed unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s is better %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %s has a missing, unexpected or out-of-range bound", kind, m.Name)
			}
		}
	}
	check("end-to-end", c.EndToEnd, true)
	check("per-layer", c.PerLayer, false)
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 || len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(c.EndToEnd), len(c.PerLayer))
	}
	var setup *contractMetric
	for i, m := range c.EndToEnd {
		if m.Name == "setup_s" {
			setup = &c.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("no setup_s metric in s, lower is better")
	}
	for _, m := range c.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d is %q with a %d-character why, implemented as %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", c.RunSeconds, c.Paths)
	}
}

// TestWorkloadsSmoke runs every workload in both modes at smoke size: no
// frame may fail, the result object must carry exactly the metrics
// BENCHMARK.json declares for the mode, with the declared units, and two
// layers runs with one seed must agree exactly on everything that is a count.
func TestWorkloadsSmoke(t *testing.T) {
	c := readContract(t)
	same := func(t *testing.T, got map[string]metricValue, want []contractMetric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("result carries %d metrics, BENCHMARK.json declares %d", len(got), len(want))
		}
		for _, m := range want {
			if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("declared metric %s (%s) is missing from the result or has unit %q", m.Name, m.Unit, v.Unit)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, correct := runSmoke(t, options{workload: w.name, seed: 11})
			if !correct || e2e.result.Failed != 0 || e2e.result.Attempted < 1 || e2e.lines["failed_frac"] != 0 {
				t.Errorf("end-to-end run: correct=%v, %d of %d frames failed", correct, e2e.result.Failed, e2e.result.Attempted)
			}
			same(t, e2e.result.Metrics, c.EndToEnd)
			for name, v := range e2e.result.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
				}
			}

			a, correctA := runSmoke(t, options{workload: w.name, seed: 11, layers: true})
			b, correctB := runSmoke(t, options{workload: w.name, seed: 11, layers: true})
			if !correctA || !correctB || a.result.Failed != 0 {
				t.Errorf("layers run: correct=%v/%v, %d frames failed", correctA, correctB, a.result.Failed)
			}
			same(t, a.result.Metrics, c.PerLayer)
			if cov := a.lines["trace.coverage_frac"]; cov < 0.5 || cov > 1.01 {
				t.Errorf("trace.coverage_frac = %v: the stage sum does not explain the traced calls", cov)
			}
			for _, name := range []string{
				"label_bits_max", "store_bytes",
				"core.label_bits_mean", "core.label_bits_total", "core.fat_count", "core.tau", "core.thm4_ratio",
				"core.fat_frac", "core.thin_frac", "core.self_frac",
				"adjserve.req_bytes_per_pair", "adjserve.resp_bytes_per_pair",
				"adjserve.upstream_batches_per_frame", "adjserve.upstream_pairs_skew",
			} {
				if _, ok := a.lines[name]; !ok || a.lines[name] != b.lines[name] {
					t.Errorf("%s is %v and %v in two runs with one seed", name, a.lines[name], b.lines[name])
				}
			}
			if e2e.lines["label_bits_max"] != a.lines["label_bits_max"] || e2e.lines["store_bytes"] != a.lines["store_bytes"] {
				t.Error("label_bits_max or store_bytes differ between the two modes of one seed")
			}
			other, _ := runSmoke(t, options{workload: w.name, seed: 12})
			if other.lines["store_bytes"] == e2e.lines["store_bytes"] {
				t.Error("-seed did not change the graph")
			}
			if w.routed() {
				if sum := a.lines["core.batch_ns_per_pair"] + a.lines["adjserve.codec_ns_per_pair"] + a.lines["adjserve.wire_ns_per_pair"] + a.lines["adjserve.router_ns_per_pair"]; !closeTo(sum, a.lines["adjserve.routed_ns_per_pair"]) {
					t.Errorf("rung deltas sum to %v, the routed rung is %v", sum, a.lines["adjserve.routed_ns_per_pair"])
				}
			}
		})
	}
}

func closeTo(a, b float64) bool { return a-b < 1e-6*b && b-a < 1e-6*b }

// shedder fails every every-th call with ErrShed before it reaches the wire.
type shedder struct {
	querier
	every int64
	calls atomic.Int64
}

func (s *shedder) AdjacentManyTrace(pairs [][2]int, out []bool, t *obs.SpanTally) ([]bool, error) {
	if s.calls.Add(1)%s.every == 0 {
		return out, adjserve.ErrShed
	}
	return s.querier.AdjacentManyTrace(pairs, out, t)
}

// TestOracleBites: one wrong expected answer, or one shed frame in a hundred,
// must each show up as failed frames and an incorrect run — which main turns
// into a non-zero exit.
func TestOracleBites(t *testing.T) {
	for name, f := range map[string]faults{
		"flipped expected bit": {flipWant: true},
		"injected ErrShed":     {wrap: func(q querier) querier { return &shedder{querier: q, every: 100} }},
	} {
		rep, correct := runSmoke(t, options{workload: "direct_b64_zipf", seed: 11, faults: f})
		if correct || rep.result.Correct || rep.result.Failed == 0 || rep.lines["failed_frac"] <= 0 {
			t.Errorf("%s: correct=%v, failed=%d, failed_frac=%v — the fault went unnoticed", name, correct, rep.result.Failed, rep.lines["failed_frac"])
		}
	}
	rep, correct := runSmoke(t, options{workload: "dist_pll_b256", seed: 11, faults: faults{flipWant: true}})
	if correct || rep.result.Failed == 0 {
		t.Errorf("flipped expected distance: correct=%v, failed=%d", correct, rep.result.Failed)
	}
}

func BenchmarkOracleCompare(b *testing.B) {
	r := &ring{batch: 4096, pairs: make([][2]int, 4096), wantAdj: make([]bool, 4096)}
	got := make([]bool, 4096)
	for i := range got {
		got[i] = i%7 == 0
		r.wantAdj[i] = got[i]
	}
	b.SetBytes(4096) // so MB/s reads as pairs per microsecond
	for i := 0; i < b.N; i++ {
		if mismatches(r.wantAdj, got) != 0 {
			b.Fatal("oracle disagrees with itself")
		}
	}
}
