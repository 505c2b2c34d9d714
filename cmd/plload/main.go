// Command plload is the serving tier's load generator: it drives a running
// plserve (store or router mode) with an open-loop (constant-rate) or closed-loop
// (saturating) stream of batched adjacency and distance queries and reports
// latency quantiles that remain honest under overload.
//
// The open-loop schedule is coordinated-omission safe in the wrk2 sense:
// request k has an *intended* send time T0 + k/rate fixed before the run
// starts, workers consume slots from a shared counter, and every latency is
// measured from the intended time — so when the server stalls, the queueing
// delay the stall inflicts on every subsequent request is charged to the
// server instead of silently vanishing into a slower send loop. Closed-loop
// mode (-rate 0) measures pure service time at saturation instead.
//
// Pair endpoints are drawn from the experiment harness's probe marginals
// (uniform | zipf | degprop via experiments.ProbeSampler), so the generator
// produces the same hub-heavy skew the experiments measure. Batch sizes mix
// by weight (-batch "64:0.9,4096:0.1"), and -dist-frac splits traffic between
// the adjacency and distance planes. Chaos flags add slow (bandwidth-
// throttled) clients and mid-run connection kills to exercise the server's
// admission, shedding and the client's jittered redial.
//
// Usage:
//
//	plload -addr 127.0.0.1:7421 -rate 2000 -duration 10s -batch 64
//	plload -addr 127.0.0.1:7421 -rate 0 -conns 4 -batch 64:0.9,4096:0.1
//	plload -addr 127.0.0.1:7421 -pair-dist zipf -zipf-s 1.1 -graph g.el
//	plload -addr 127.0.0.1:7421 -slow-conns 2 -slow-bps 65536 -kill-every 2s
//	plload -addr 127.0.0.1:7421 -json load_rows.json -label knee_2k
//
// With -json, one result row (offered/achieved rate, latency quantiles, shed
// and error counts, git revision) is appended to the JSON array file named.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adjserve"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "plload: %v\n", err)
		os.Exit(1)
	}
}

// config is one run's fully parsed shape, kept separate from flag.FlagSet so
// tests can drive run() with arg slices and assert on the emitted row.
type config struct {
	addr      string
	duration  time.Duration
	warmup    time.Duration
	rate      float64 // frames/sec across all conns; 0 = closed loop
	conns     int
	workers   int // per conn
	distFrac  float64
	mix       []mixClass
	dist      experiments.ProbeDist
	zipfS     float64
	seed      int64
	slowConns int
	slowBPS   int
	killEvery time.Duration
	label     string
	traceN    int64 // trace every Nth frame (0 = tracing off)
}

// mixClass is one batch-size class and its traffic share.
type mixClass struct {
	size   int
	weight float64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("plload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "server address (plserve -labels or -shards; required)")
		duration  = fs.Duration("duration", 10*time.Second, "measured run length")
		warmup    = fs.Duration("warmup", 1*time.Second, "initial slice excluded from the stats")
		rate      = fs.Float64("rate", 0, "offered request frames/sec across all conns (0 = closed loop)")
		conns     = fs.Int("conns", 2, "concurrent client connections")
		workers   = fs.Int("workers", 4, "concurrent in-flight requests per connection")
		distFrac  = fs.Float64("dist-frac", 0, "fraction of frames sent to the distance plane [0,1]")
		batchMix  = fs.String("batch", "64", "batch-size mix: \"64\" or \"64:0.9,4096:0.1\"")
		pairDist  = fs.String("pair-dist", "uniform", "endpoint marginal: uniform | zipf | degprop")
		zipfS     = fs.Float64("zipf-s", 1.1, "zipf exponent for -pair-dist zipf")
		graphPath = fs.String("graph", "", "edge list for vertex degrees (required for zipf/degprop)")
		seed      = fs.Int64("seed", 1, "workload seed: same seed, same probe stream")
		slowConns = fs.Int("slow-conns", 0, "how many of the conns are bandwidth-throttled chaos clients")
		slowBPS   = fs.Int("slow-bps", 64<<10, "throttle for slow conns, bytes/sec each way")
		killEvery = fs.Duration("kill-every", 0, "kill a random connection this often (0 = never)")
		jsonPath  = fs.String("json", "", "append one result row to this JSON array file")
		label     = fs.String("label", "", "config label for the JSON row")
		traceN    = fs.Int64("trace-sample", 0, "request end-to-end tracing for every Nth frame and report per-stage latency attribution (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *conns < 1 || *workers < 1 {
		return fmt.Errorf("-conns and -workers must be >= 1")
	}
	if *slowConns < 0 || *slowConns > *conns {
		return fmt.Errorf("-slow-conns must be in [0, conns]")
	}
	if *distFrac < 0 || *distFrac > 1 {
		return fmt.Errorf("-dist-frac must be in [0,1]")
	}
	if *warmup >= *duration {
		return fmt.Errorf("-warmup (%v) must be shorter than -duration (%v)", *warmup, *duration)
	}
	mix, err := parseMix(*batchMix)
	if err != nil {
		return err
	}
	pd, err := experiments.ParseProbeDist(*pairDist)
	if err != nil {
		return err
	}
	if pd != experiments.DistUniform && *graphPath == "" {
		return fmt.Errorf("-pair-dist %s needs -graph for vertex degrees", pd)
	}

	cfg := &config{
		addr: *addr, duration: *duration, warmup: *warmup, rate: *rate,
		conns: *conns, workers: *workers, distFrac: *distFrac, mix: mix,
		dist: pd, zipfS: *zipfS, seed: *seed,
		slowConns: *slowConns, slowBPS: *slowBPS, killEvery: *killEvery,
		label: *label, traceN: *traceN,
	}

	// Handshake: the server knows n; degrees (for skew) come from the graph
	// file, which must describe the same vertex set.
	probe, err := adjserve.Dial(cfg.addr)
	if err != nil {
		return err
	}
	n, err := probe.Info()
	probe.Close()
	if err != nil {
		return err
	}
	var deg []int
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			return err
		}
		g, err := graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return err
		}
		if g.N() != n {
			return fmt.Errorf("graph %s has n=%d but server serves n=%d", *graphPath, g.N(), n)
		}
		deg = g.Degrees()
	}
	sampler, err := experiments.NewProbeSamplerDegrees(n, deg, pd, *zipfS, *seed)
	if err != nil {
		return err
	}

	res, err := drive(cfg, sampler)
	if err != nil {
		return err
	}
	report(stdout, cfg, res)
	if *jsonPath != "" {
		if err := appendRow(*jsonPath, makeRow(cfg, res)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "row appended to %s\n", *jsonPath)
	}
	return nil
}

// parseMix parses "64" or "64:0.9,4096:0.1" into normalized classes.
func parseMix(s string) ([]mixClass, error) {
	var mix []mixClass
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		size, weight := part, "1"
		if i := strings.IndexByte(part, ':'); i >= 0 {
			size, weight = part[:i], part[i+1:]
		}
		sz, err := strconv.Atoi(size)
		if err != nil || sz < 1 {
			return nil, fmt.Errorf("bad batch size %q in mix %q", size, s)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad batch weight %q in mix %q", weight, s)
		}
		mix = append(mix, mixClass{size: sz, weight: w})
		total += w
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty batch mix %q", s)
	}
	for i := range mix {
		mix[i].weight /= total
	}
	return mix, nil
}

// workload is the pre-generated request stream: for each mix class a ring of
// distinct pair batches, plus a shuffled schedule mapping slot index to class
// so the mix interleaves rather than phases. Everything is generated up front
// from the seeded sampler, so the measured loop allocates nothing and the
// stream is deterministic in the seed.
type workload struct {
	classes  [][][][2]int // [class][ring][pair]
	schedule []int        // slot % len → class index
	distMod  uint64       // slots with hash(k) % 1000 < distMod go to the distance plane
}

// batchesPerClass balances memory against cache-resonance artifacts: enough
// distinct batches that the server never sees the same pairs twice in quick
// succession, few enough that a 4096-pair class stays a few MB.
const batchesPerClass = 32

func buildWorkload(cfg *config, sampler *experiments.ProbeSampler) *workload {
	w := &workload{distMod: uint64(cfg.distFrac * 1000)}
	for _, mc := range cfg.mix {
		ring := make([][][2]int, batchesPerClass)
		for i := range ring {
			ring[i] = sampler.Pairs(make([][2]int, 0, mc.size), mc.size)
		}
		w.classes = append(w.classes, ring)
	}
	// A 1000-slot schedule gives 0.1% mix resolution; the deterministic
	// shuffle interleaves classes instead of sending all of one then all of
	// the other.
	w.schedule = make([]int, 1000)
	acc, idx := 0.0, 0
	for c, mc := range cfg.mix {
		acc += mc.weight
		for ; idx < len(w.schedule) && float64(idx) < acc*float64(len(w.schedule)); idx++ {
			w.schedule[idx] = c
		}
	}
	for ; idx < len(w.schedule); idx++ {
		w.schedule[idx] = len(cfg.mix) - 1
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	rng.Shuffle(len(w.schedule), func(i, j int) {
		w.schedule[i], w.schedule[j] = w.schedule[j], w.schedule[i]
	})
	return w
}

// class returns the batch for schedule slot k and whether it goes to the
// distance plane. Knuth's multiplicative hash decorrelates the plane choice
// from the mix schedule.
func (w *workload) pick(k uint64) (pairs [][2]int, dist bool) {
	c := w.schedule[k%uint64(len(w.schedule))]
	ring := w.classes[c]
	pairs = ring[(k/uint64(len(w.schedule)))%uint64(len(ring))]
	dist = (k*2654435761)%1000 < w.distMod
	return pairs, dist
}

// tracker remembers a client's current net.Conn so the chaos killer can cut
// it mid-run; the client's next call redials through its jittered backoff.
type tracker struct {
	mu  sync.Mutex
	cur net.Conn
}

func (t *tracker) set(c net.Conn) {
	t.mu.Lock()
	t.cur = c
	t.mu.Unlock()
}

func (t *tracker) kill() bool {
	t.mu.Lock()
	c := t.cur
	t.cur = nil
	t.mu.Unlock()
	if c == nil {
		return false
	}
	c.Close()
	return true
}

// slowConn throttles both directions of a connection to bps by sleeping in
// proportion to bytes moved — a crude token bucket that is plenty to model a
// straggler consumer for the server's backpressure to push against.
type slowConn struct {
	net.Conn
	bps int
}

func (c *slowConn) throttle(n int) {
	if n > 0 && c.bps > 0 {
		time.Sleep(time.Duration(float64(n) / float64(c.bps) * float64(time.Second)))
	}
}

func (c *slowConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.throttle(n)
	return n, err
}

func (c *slowConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.throttle(n)
	return n, err
}

// results aggregates a run. Latencies are raw nanosecond samples (merged and
// sorted once at the end), so the reported quantiles are exact rather than
// bucketed — a load generator can afford the memory a server cannot.
type results struct {
	sent, ok, shed, errs atomic.Int64
	pairsOK              atomic.Int64
	kills                int64
	slowOK               atomic.Int64 // chaos-conn completions, excluded from latency

	mu        sync.Mutex
	latencies []int64 // ns, measured conns only, post-warmup
	elapsed   time.Duration

	trace traceStats
}

// traceStats aggregates the sampled end-to-end traces: per-(stage,hop)
// nanosecond samples for the attribution table, plus per-call wall time and
// stage-sum so the report can state how much of the observed latency the
// stages explain.
type traceStats struct {
	mu      sync.Mutex
	samples map[traceRowKey][]int64
	e2eNs   int64 // total wall time across traced calls
	stageNs int64 // total per-stage time across traced calls
	calls   int64
}

type traceRowKey struct{ stage, hop uint8 }

// add folds one traced call's tally in. wallNs is the call's own wall time
// (send → last response), the denominator the stage sum is compared against.
func (ts *traceStats) add(t *obs.SpanTally, wallNs int64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.samples == nil {
		ts.samples = make(map[traceRowKey][]int64)
	}
	ts.calls++
	ts.e2eNs += wallNs
	for _, st := range t.Stages() {
		// Shard-indexed entries nest inside the peer's upstream window, so
		// only the top-level hops count toward the coverage invariant.
		if st.Hop == obs.HopSelf || st.Hop == obs.HopPeer {
			ts.stageNs += st.Ns
		}
		k := traceRowKey{st.Stage, st.Hop}
		ts.samples[k] = append(ts.samples[k], st.Ns)
	}
}

func (r *results) record(worker []int64) []int64 {
	r.mu.Lock()
	r.latencies = append(r.latencies, worker...)
	r.mu.Unlock()
	return worker[:0]
}

// drive runs the configured load against the server and collects results.
func drive(cfg *config, sampler *experiments.ProbeSampler) (*results, error) {
	w := buildWorkload(cfg, sampler)
	res := &results{}

	clients := make([]*adjserve.Client, cfg.conns)
	trackers := make([]*tracker, cfg.conns)
	for i := range clients {
		c := adjserve.NewClient(cfg.addr)
		tr := &tracker{}
		slow := i < cfg.slowConns
		bps := cfg.slowBPS
		c.DialFunc = func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if slow {
				nc = &slowConn{Conn: nc, bps: bps}
			}
			tr.set(nc)
			return nc, nil
		}
		clients[i] = c
		trackers[i] = tr
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	start := time.Now()
	deadline := start.Add(cfg.duration)
	measureFrom := start.Add(cfg.warmup)
	interval := time.Duration(0)
	if cfg.rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.rate)
	}

	stopKiller := make(chan struct{})
	var killerWG sync.WaitGroup
	if cfg.killEvery > 0 {
		killerWG.Add(1)
		go func() {
			defer killerWG.Done()
			rng := rand.New(rand.NewSource(cfg.seed ^ 0xdead))
			t := time.NewTicker(cfg.killEvery)
			defer t.Stop()
			for {
				select {
				case <-stopKiller:
					return
				case <-t.C:
					if trackers[rng.Intn(len(trackers))].kill() {
						atomic.AddInt64(&res.kills, 1)
					}
				}
			}
		}()
	}

	// The schedule counter is shared by every worker on every conn: slot k's
	// intended send time is start + k*interval regardless of which worker
	// gets to it, which is exactly the coordinated-omission-safe contract.
	var slot atomic.Uint64
	var wg sync.WaitGroup
	for ci, c := range clients {
		slowC := ci < cfg.slowConns
		for wi := 0; wi < cfg.workers; wi++ {
			wg.Add(1)
			go func(c *adjserve.Client, slowC bool) {
				defer wg.Done()
				lats := make([]int64, 0, 4096)
				boolOut := make([]bool, 0, 4096)
				distOut := make([]int, 0, 4096)
				var tally obs.SpanTally
				for {
					k := slot.Add(1) - 1
					intended := start
					if interval > 0 {
						intended = start.Add(time.Duration(k) * interval)
						if intended.After(deadline) {
							break
						}
						if d := time.Until(intended); d > 0 {
							time.Sleep(d)
						}
					} else {
						intended = time.Now()
						if intended.After(deadline) {
							break
						}
					}
					pairs, isDist := w.pick(k)
					res.sent.Add(1)
					traced := cfg.traceN > 0 && k%uint64(cfg.traceN) == 0
					var err error
					var callStart time.Time
					if traced {
						tally.Reset()
						callStart = time.Now()
					}
					switch {
					case traced && isDist:
						_, err = c.DistManyTrace(pairs, distOut[:0], &tally)
					case traced:
						_, err = c.AdjacentManyTrace(pairs, boolOut[:0], &tally)
					case isDist:
						_, err = c.DistMany(pairs, distOut[:0])
					default:
						_, err = c.AdjacentMany(pairs, boolOut[:0])
					}
					lat := time.Since(intended)
					if traced && err == nil && !slowC {
						res.trace.add(&tally, int64(time.Since(callStart)))
					}
					switch {
					case err == nil:
						res.pairsOK.Add(int64(len(pairs)))
						if slowC {
							res.slowOK.Add(1)
						} else {
							res.ok.Add(1)
							if !intended.Before(measureFrom) {
								lats = append(lats, int64(lat))
								if len(lats) == cap(lats) {
									lats = res.record(lats)
								}
							}
						}
					case errors.Is(err, adjserve.ErrShed):
						res.shed.Add(1)
					default:
						res.errs.Add(1)
					}
				}
				res.record(lats)
			}(c, slowC)
		}
	}
	wg.Wait()
	close(stopKiller)
	killerWG.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res, nil
}

// quantile reads an exact quantile from the sorted sample set.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func report(out io.Writer, cfg *config, res *results) {
	mode, offered := "closed", achievedQPS(cfg, res)
	if cfg.rate > 0 {
		mode, offered = "open", cfg.rate
	}
	fmt.Fprintf(out, "plload: mode=%s offered=%.1f/s achieved=%.1f/s elapsed=%v\n",
		mode, offered, achievedQPS(cfg, res), res.elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "frames: sent=%d ok=%d shed=%d err=%d  pairs_ok=%d\n",
		res.sent.Load(), res.ok.Load(), res.shed.Load(), res.errs.Load(), res.pairsOK.Load())
	l := res.latencies
	fmt.Fprintf(out, "latency(us): p50=%d p90=%d p99=%d p99.9=%d max=%d (n=%d)\n",
		quantile(l, 0.50)/1e3, quantile(l, 0.90)/1e3, quantile(l, 0.99)/1e3,
		quantile(l, 0.999)/1e3, quantile(l, 1)/1e3, len(l))
	if cfg.slowConns > 0 || cfg.killEvery > 0 {
		fmt.Fprintf(out, "chaos: slow_conns=%d slow_ok=%d kills=%d (slow conns excluded from latency)\n",
			cfg.slowConns, res.slowOK.Load(), atomic.LoadInt64(&res.kills))
	}
	if cfg.traceN > 0 {
		reportTrace(out, &res.trace)
	}
}

// reportTrace prints the per-stage latency attribution table from the sampled
// traces, largest contributor first, and states what fraction of the traced
// calls' wall time the stages account for — on a healthy run the stage sum
// covers nearly all of it, because the client charges everything it cannot
// attribute to a named stage to its net stage.
func reportTrace(out io.Writer, ts *traceStats) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.calls == 0 {
		fmt.Fprintf(out, "trace: no traced frames completed\n")
		return
	}
	type traceRow struct {
		key     traceRowKey
		total   int64
		samples []int64
	}
	rows := make([]traceRow, 0, len(ts.samples))
	for k, v := range ts.samples {
		var total int64
		for _, ns := range v {
			total += ns
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		rows = append(rows, traceRow{k, total, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		if rows[i].key.hop != rows[j].key.hop {
			return rows[i].key.hop < rows[j].key.hop
		}
		return rows[i].key.stage < rows[j].key.stage
	})
	fmt.Fprintf(out, "trace: per-stage latency attribution (%d traced frames)\n", ts.calls)
	fmt.Fprintf(out, "  %-10s %-8s %10s %10s %10s\n", "stage", "hop", "p50(us)", "p99(us)", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %-8s %10.1f %10.1f %9.1f%%\n",
			obs.StageName(r.key.stage), obs.HopName(r.key.hop),
			float64(quantile(r.samples, 0.50))/1e3, float64(quantile(r.samples, 0.99))/1e3,
			100*float64(r.total)/float64(ts.e2eNs))
	}
	fmt.Fprintf(out, "trace: stage sum covers %.1f%% of e2e (n=%d)\n",
		100*float64(ts.stageNs)/float64(ts.e2eNs), ts.calls)
}

// achievedQPS is completed-ok frames per second of measured wall time; under
// overload it plateaus below the offered rate, which is the knee the E28
// curve plots.
func achievedQPS(cfg *config, res *results) float64 {
	secs := res.elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(res.ok.Load()+res.slowOK.Load()) / secs
}

// row is one -json entry: enough provenance (config, git rev,
// timestamp) that a regression can be traced to a commit, and the
// latency/throughput numbers the knee curve is drawn from.
type row struct {
	Label       string  `json:"label"`
	GitRev      string  `json:"git_rev"`
	Time        string  `json:"time"`
	Mode        string  `json:"mode"`
	PairDist    string  `json:"pair_dist"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	BatchMix    string  `json:"batch_mix"`
	DistFrac    float64 `json:"dist_frac"`
	Conns       int     `json:"conns"`
	Workers     int     `json:"workers"`
	DurationSec float64 `json:"duration_s"`
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	FramesSent  int64   `json:"frames_sent"`
	FramesOK    int64   `json:"frames_ok"`
	FramesShed  int64   `json:"frames_shed"`
	FramesErr   int64   `json:"frames_err"`
	PairsOK     int64   `json:"pairs_ok"`
	P50us       int64   `json:"p50_us"`
	P90us       int64   `json:"p90_us"`
	P99us       int64   `json:"p99_us"`
	P999us      int64   `json:"p999_us"`
	MaxUs       int64   `json:"max_us"`
	Kills       int64   `json:"kills,omitempty"`
	SlowConns   int     `json:"slow_conns,omitempty"`
}

func makeRow(cfg *config, res *results) row {
	mode, offered := "closed", achievedQPS(cfg, res)
	if cfg.rate > 0 {
		mode, offered = "open", cfg.rate
	}
	var mixParts []string
	for _, mc := range cfg.mix {
		mixParts = append(mixParts, fmt.Sprintf("%d:%.3g", mc.size, mc.weight))
	}
	zs := 0.0
	if cfg.dist == experiments.DistZipf {
		zs = cfg.zipfS
	}
	l := res.latencies
	return row{
		Label: cfg.label, GitRev: gitRev(), Time: time.Now().UTC().Format(time.RFC3339),
		Mode: mode, PairDist: string(cfg.dist), ZipfS: zs,
		BatchMix: strings.Join(mixParts, ","), DistFrac: cfg.distFrac,
		Conns: cfg.conns, Workers: cfg.workers,
		DurationSec: cfg.duration.Seconds(),
		OfferedQPS:  offered, AchievedQPS: achievedQPS(cfg, res),
		FramesSent: res.sent.Load(), FramesOK: res.ok.Load(),
		FramesShed: res.shed.Load(), FramesErr: res.errs.Load(),
		PairsOK: res.pairsOK.Load(),
		P50us:   quantile(l, 0.50) / 1e3, P90us: quantile(l, 0.90) / 1e3,
		P99us: quantile(l, 0.99) / 1e3, P999us: quantile(l, 0.999) / 1e3,
		MaxUs: quantile(l, 1) / 1e3,
		Kills: atomic.LoadInt64(&res.kills), SlowConns: cfg.slowConns,
	}
}

// gitRev best-effort resolves the working tree's short revision; load results
// without provenance are unusable, but a missing git binary should not fail
// the run.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendRow appends r to the JSON array at path (creating it if absent),
// writing via a temp file + rename so a crashed run cannot truncate the
// tracked benchmark history.
func appendRow(path string, r row) error {
	var rows []row
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("existing %s is not a JSON row array: %v", path, err)
		}
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	rows = append(rows, r)
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
