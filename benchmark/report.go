package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// metric is one reported number. Every metric prints as "name value unit";
// the final JSON object carries the end-to-end ones on an end-to-end run and
// the per-layer ones on a layers run, as BENCHMARK.json declares them.
type metric struct {
	name  string
	value float64
	unit  string
	kind  metricKind
}

type metricKind uint8

const (
	endToEnd metricKind = iota // gated by BENCHMARK.json's bounds
	perLayer                   // attribution, no bound
	info                       // printed only
)

// stamp says what produced a run's numbers.
type stamp struct {
	Workload       string             `json:"workload"`
	Mode           string             `json:"mode"`
	Smoke          bool               `json:"smoke"`
	Seed           int64              `json:"seed"`
	GitRev         string             `json:"git_rev"`
	GoVersion      string             `json:"go_version"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	NProc          int                `json:"nproc"`
	CPUModel       string             `json:"cpu_model"`
	N              int                `json:"n"`
	M              int                `json:"m"`
	RingPairs      int                `json:"ring_pairs"`
	Batch          int                `json:"batch"`
	Conns          int                `json:"conns"`
	Callers        int                `json:"callers_per_conn"`
	WallS          map[string]float64 `json:"wall_s"` // by phase, and "total"
	SlicePairsPerS []float64          `json:"slice_pairs_per_s"`
	SliceRefNs     []float64          `json:"slice_ref_ns_per_load"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupMedian is the median over the rebuilds of one layer's set-up time.
func (m *measured) setupMedian(layer func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(m.setups))
	for i, st := range m.setups {
		xs[i] = layer(st).Seconds()
	}
	return median(xs)
}

// metrics names everything the run measured, in print order.
func (m *measured) metrics(attempted, failed int64) []metric {
	main := m.main
	ms := []metric{
		{"setup_s", m.setupMedian(func(s setupTimes) time.Duration { return s.total }), "s", endToEnd},
		{"pairs_per_kref", main.pairsPerKref(), "pairs/kref", endToEnd},
		{"label_bits_max", float64(m.cost.bitsMax), "bits", endToEnd},
		{"store_bytes", float64(m.fleet.storeBytes), "bytes", endToEnd},
		{"failed_frac", float64(failed) / float64(attempted), "fraction", info},
		{"pairs_per_s", main.pairsPerS(), "pairs/s", perLayer},
		{"frame_p50_us", median(main.p50), "us", perLayer},
		{"frame_p90_us", median(main.p90), "us", perLayer},
		{"adjserve.frame_p99_us", median(main.p99), "us", perLayer},
		{"frames_attempted", float64(attempted), "count", info},
		{"frame_latency_samples", float64(main.samples), "count", info},
		{"frame_latency_samples_dropped", float64(main.dropped), "count", info},

		// Set-up ladder: each moves setup_s.
		{"gen.sample_s", m.walls["gen"], "s", perLayer},
		{"core.encode_s", m.setupMedian(func(s setupTimes) time.Duration { return s.encode }), "s", perLayer},
		{"distance.encode_s", m.setupMedian(func(s setupTimes) time.Duration { return s.distEncode }), "s", perLayer},
		{"core.shard_split_s", m.setupMedian(func(s setupTimes) time.Duration { return s.shardSplit }), "s", perLayer},
		{"labelstore.write_s", m.setupMedian(func(s setupTimes) time.Duration { return s.write }), "s", perLayer},
		{"labelstore.open_s", m.setupMedian(func(s setupTimes) time.Duration { return s.open }), "s", perLayer},
		{"core.engine_build_s", m.setupMedian(func(s setupTimes) time.Duration { return s.engineBuild }), "s", perLayer},
		{"core.dist_engine_build_s", m.setupMedian(func(s setupTimes) time.Duration { return s.distEngineBuild }), "s", perLayer},
		{"adjserve.fleet_boot_s", m.setupMedian(func(s setupTimes) time.Duration { return s.fleetBoot }), "s", perLayer},

		// The paper's cost model: moves label_bits_max and store_bytes.
		{"core.label_bits_mean", m.cost.bitsMean, "bits", perLayer},
		{"core.label_bits_total", float64(m.cost.bitsTotal), "bits", perLayer},
		{"core.fat_count", float64(m.cost.fatCount), "count", perLayer},
		{"core.tau", float64(m.cost.tau), "count", perLayer},
		{"core.thm4_ratio", m.cost.thm4Ratio, "ratio", perLayer},
	}
	if m.layers {
		lad, cnt := m.ladder, m.counts
		fixedPairs := float64(int(1) << m.w.logFixed)
		routerNs := 0.0
		if m.w.routed() {
			routerNs = lad.routed - lad.tcp
		}
		ms = append(ms,
			// Query ladder, and the differences between neighbouring rungs.
			metric{"bitstr.peek_ns_per_pair", lad.peek, "ns/pair", perLayer},
			metric{"core.probe_ns_per_pair", lad.probe, "ns/pair", perLayer},
			metric{"core.batch_ns_per_pair", lad.batch, "ns/pair", perLayer},
			metric{"adjserve.mem_ns_per_pair", lad.mem, "ns/pair", perLayer},
			metric{"adjserve.tcp_ns_per_pair", lad.tcp, "ns/pair", perLayer},
			metric{"adjserve.routed_ns_per_pair", lad.routed, "ns/pair", perLayer},
			metric{"adjserve.codec_ns_per_pair", lad.mem - lad.batch, "ns/pair", perLayer},
			metric{"adjserve.wire_ns_per_pair", lad.tcp - lad.mem, "ns/pair", perLayer},
			metric{"adjserve.router_ns_per_pair", routerNs, "ns/pair", perLayer},

			// Counts over the fixed-work pass.
			metric{"core.fat_frac", float64(cnt.fat) / float64(cnt.queries), "fraction", perLayer},
			metric{"core.thin_frac", float64(cnt.thin) / float64(cnt.queries), "fraction", perLayer},
			metric{"core.self_frac", float64(cnt.self) / float64(cnt.queries), "fraction", perLayer},
			metric{"adjserve.req_bytes_per_pair", float64(cnt.bytesIn) / fixedPairs, "bytes/pair", perLayer},
			metric{"adjserve.resp_bytes_per_pair", float64(cnt.bytesOut) / fixedPairs, "bytes/pair", perLayer},
			metric{"adjserve.upstream_batches_per_frame", float64(cnt.upBatches) / float64(cnt.frames), "count", perLayer},
			metric{"adjserve.upstream_pairs_skew", cnt.upstreamSkew(), "ratio", perLayer},
		)
	}
	ms = append(ms,
		// Busy time per frame over the main phase, from the public histograms.
		metric{"adjserve.server_frame_mean_us", m.busy.serverFrame.meanUs(), "us", perLayer},
		metric{"core.probe_frame_mean_us", m.busy.probe.meanUs(), "us", perLayer},
		metric{"adjserve.router_frame_mean_us", m.busy.routerFrame.meanUs(), "us", perLayer},
		metric{"adjserve.upstream_rtt_mean_us", m.busy.upstreamRTT.meanUs(), "us", perLayer},

		// Failed or retried work over the whole run; all must be 0.
		metric{"adjserve.error_frames", float64(m.total.errorFrames), "count", perLayer},
		metric{"adjserve.shed_frames", float64(m.total.shedFrames), "count", perLayer},
		metric{"adjserve.write_errors", float64(m.total.writeErrors), "count", perLayer},
		metric{"adjserve.client_redials", float64(m.redials), "count", perLayer},
	)
	if m.layers {
		tr := m.traced.trace
		for i, k := range stageKeys {
			ms = append(ms, metric{k.metric, tr.p50us[i], "us", perLayer})
		}
		ms = append(ms,
			metric{"trace.net_local_share", tr.netLocalShare, "fraction", perLayer},
			metric{"trace.probe_share", tr.probeShare, "fraction", perLayer},
			metric{"trace.upstream_share", tr.upstreamShare, "fraction", perLayer},
			metric{"trace.coverage_frac", tr.coverage, "fraction", perLayer},
			metric{"obs.trace_overhead_frac", 1 - m.traced.pairsPerKref()/main.pairsPerKref(), "fraction", perLayer},
			metric{"trace_samples_dropped", float64(tr.dropped), "count", info},
		)
	}
	return append(ms,
		// Runtime and harness health over the main phase.
		metric{"runtime.allocs_per_frame", float64(main.host.mallocs) / float64(main.attempted), "count", perLayer},
		metric{"runtime.gc_cycles", float64(main.host.gcCycles), "count", perLayer},
		metric{"runtime.gc_pause_us", float64(main.host.gcPauseNs) / 1e3, "us", perLayer},
		metric{"runtime.cpu_ns_per_pair", float64(main.host.cpuNs) / float64(main.attempted*int64(m.w.batch)), "ns/pair", perLayer},
		metric{"runtime.rss_peak_mb", float64(main.host.maxRSSKB) / 1024, "MB", perLayer},
		metric{"harness.slice_iqr_frac", iqrFrac(main.slicePairsPerKref()), "fraction", perLayer},
		metric{"harness.ref_ns_per_load", median(main.sliceRefNs), "ns/load", perLayer},
	)
}

// report prints every metric, the stamp, and the result object.
func (m *measured) report(out io.Writer) (correct bool, err error) {
	attempted, failed := m.warm.attempted+m.main.attempted, m.warm.failed+m.main.failed
	if m.traced != nil {
		attempted += m.traced.attempted
		failed += m.traced.failed
	}
	want, mode := endToEnd, "e2e"
	if m.layers {
		want, mode = perLayer, "layers"
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, mt := range m.metrics(attempted, failed) {
		fmt.Fprintf(out, "%s %v %s\n", mt.name, mt.value, mt.unit)
		if mt.kind == want {
			res.Metrics[mt.name] = metricValue{mt.value, mt.unit}
		}
	}
	stampJSON, err := json.Marshal(stamp{
		Workload: m.w.name, Mode: mode, Smoke: m.smoke, Seed: m.seed,
		GitRev: gitRev(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: cpuModel(),
		N: m.g.N(), M: m.g.M(), RingPairs: len(m.ring.pairs), Batch: m.w.batch, Conns: conns, Callers: callers,
		WallS: m.walls, SlicePairsPerS: m.main.slicePairsPerS, SliceRefNs: m.main.sliceRefNs,
	})
	if err != nil {
		return false, err
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "stamp %s\n%s\n", stampJSON, resJSON)
	return res.Correct, nil
}
