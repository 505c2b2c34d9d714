package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing: per-request latency attribution across the serving fleet.
//
// A traced request carries a 64-bit trace id through every hop
// (client → router → shard server); each hop measures its own stages into a
// stack-local SpanTally and echoes them back in the response frame, so the
// originator reconstructs a full timeline without any out-of-band collector.
// Completed traces land in a lossy TraceRing (sampled) and a second ring
// for slow frames (threshold-triggered even when unsampled), both rendered
// as JSON by the admin endpoints /debug/traces and /debug/slowlog.
//
// The stage vocabulary is fixed so every hop agrees on meaning:
//
//	read     request frame read off the socket (header seen → payload read)
//	queue    time the frame sat behind earlier frames of a pipelined burst
//	probe    engine probe: decode pairs, query the label arena, encode answer
//	scatter  router-side partition of a batch into per-shard sub-batches
//	gather   router-side merge of per-shard answers back into request order
//	upstream router-side fan-out window (first sub-batch sent → last answered)
//	net      residual wire+flush time a parent hop attributes to its child
//	           (measured RTT minus the child's self-reported stage sum)
//	encode   client-side request encoding into the wire buffer
//	flush    client-side socket write+flush of the request
//
// Hop labels say whose stage an entry is. A hop always records its own
// stages as HopSelf; when a response's trace block is merged into the
// caller's tally, the callee's HopSelf entries are relabeled HopPeer ("the
// hop I talked to"). The router further relabels HopPeer to the concrete
// shard index when merging per-shard answers, so at the originator the
// labels read: HopSelf = my client stages, HopPeer = the hop I dialed
// (router or server), 0..250 = shards behind a router.
const (
	StageRead     uint8 = 1
	StageQueue    uint8 = 2
	StageProbe    uint8 = 3
	StageScatter  uint8 = 4
	StageGather   uint8 = 5
	StageUpstream uint8 = 6
	StageNet      uint8 = 7
	StageEncode   uint8 = 8
	StageFlush    uint8 = 9
)

// HopSelf labels a stage recorded by the hop itself; HopPeer labels stages
// reported by the immediate downstream hop. Values below HopPeer are shard
// indices assigned by a router when it merges per-shard responses.
const (
	HopSelf uint8 = 0xff
	HopPeer uint8 = 0xfd
)

// StageName returns the wire-stable lowercase name of a stage id, or "?" for
// an unknown id (a newer peer may report stages this build doesn't know).
func StageName(s uint8) string {
	switch s {
	case StageRead:
		return "read"
	case StageQueue:
		return "queue"
	case StageProbe:
		return "probe"
	case StageScatter:
		return "scatter"
	case StageGather:
		return "gather"
	case StageUpstream:
		return "upstream"
	case StageNet:
		return "net"
	case StageEncode:
		return "encode"
	case StageFlush:
		return "flush"
	}
	return "?"
}

// HopName renders a hop label for humans: "local" for the originator's own
// stages, "peer" for the hop it dialed, "shard<i>" for router-assigned shard
// indices.
func HopName(h uint8) string {
	switch h {
	case HopSelf:
		return "local"
	case HopPeer:
		return "peer"
	}
	return "shard" + itoa(int(h))
}

// itoa is a tiny strconv.Itoa for small non-negative ints, keeping the render
// path free of imports it doesn't need.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 && i > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TraceMaxStages bounds the stage entries a single trace can hold: enough
// for a router fan-out over a large fleet (3 own stages + 3 client stages +
// ~4 entries per shard) while keeping Trace embeddable in fixed-size ring
// slots. Overflow drops entries, never allocates.
const TraceMaxStages = 64

// TraceStage is one attributed duration: which stage, on which hop, how long.
type TraceStage struct {
	Stage uint8
	Hop   uint8
	Ns    int64
}

// SpanTally is the stack-local stage accumulator the hot paths write into —
// the tracing analogue of core.QueryTally. The zero value is an empty tally;
// Add is two stores and an increment, no atomics, no allocation. A tally is
// only turned into a heap Trace when it is deposited into a ring (sampled or
// slow), which is off the common path by construction.
type SpanTally struct {
	ID uint64 // propagated trace id; 0 means locally originated, unsampled
	n  int
	st [TraceMaxStages]TraceStage
}

// Reset clears the tally for reuse (the id is cleared too).
func (t *SpanTally) Reset() { t.ID, t.n = 0, 0 }

// Add records one stage duration. Entries beyond TraceMaxStages are dropped.
func (t *SpanTally) Add(stage, hop uint8, ns int64) {
	if t.n >= TraceMaxStages {
		return
	}
	t.st[t.n] = TraceStage{Stage: stage, Hop: hop, Ns: ns}
	t.n++
}

// Len returns the number of recorded stages.
func (t *SpanTally) Len() int { return t.n }

// Stages returns the recorded entries as a slice over the tally's own array
// (valid until the next Reset/Add).
func (t *SpanTally) Stages() []TraceStage { return t.st[:t.n] }

// SumHop returns the total nanoseconds recorded against one hop label.
func (t *SpanTally) SumHop(hop uint8) int64 {
	var s int64
	for i := 0; i < t.n; i++ {
		if t.st[i].Hop == hop {
			s += t.st[i].Ns
		}
	}
	return s
}

// Trace is a completed, self-contained trace record as stored in a ring
// slot: fixed size, no pointers, safe to copy with one memmove.
type Trace struct {
	ID      uint64
	Unix    int64 // completion time, seconds since epoch
	Op      uint8 // wire op the frame carried
	Pairs   int64 // pairs answered by the frame
	TotalNs int64 // end-to-end time at the hop that deposited the trace
	NStages int32
	Stages  [TraceMaxStages]TraceStage
}

// Fill populates tr from a tally plus frame facts. It performs no allocation.
func (tr *Trace) Fill(t *SpanTally, op uint8, pairs int, totalNs int64) {
	tr.ID = t.ID
	tr.Unix = time.Now().Unix()
	tr.Op = op
	tr.Pairs = int64(pairs)
	tr.TotalNs = totalNs
	tr.NStages = int32(t.n)
	copy(tr.Stages[:], t.st[:t.n])
}

// traceSlot pairs a Trace with a short-held per-slot mutex: a writer holds it
// only for the memmove of one Trace, and Snapshot TryLocks so a reader never
// blocks a writer beyond that copy — a slot mid-write is simply skipped.
type traceSlot struct {
	mu   sync.Mutex
	full bool
	tr   Trace
}

// TraceRing is a fixed-size ring of completed traces: writers claim slots
// round-robin with one atomic add and copy in under the slot's mutex, held
// only for the copy. The ring is lossy by design — it answers "what do recent
// traces look like", not "every trace" — which is what keeps Put constant-
// time and effectively uncontended for the frame loop (writers rotate slots;
// readers skip rather than wait).
type TraceRing struct {
	head  atomic.Uint64
	slots []traceSlot
}

// NewTraceRing builds a ring with capacity n (minimum 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{slots: make([]traceSlot, n)}
}

// Put stores a copy of tr in the next slot.
func (r *TraceRing) Put(tr *Trace) {
	idx := (r.head.Add(1) - 1) % uint64(len(r.slots))
	s := &r.slots[idx]
	s.mu.Lock()
	s.tr = *tr
	s.full = true
	s.mu.Unlock()
}

// Len returns the number of published slots (capped at capacity).
func (r *TraceRing) Len() int {
	h := r.head.Load()
	if h > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(h)
}

// Snapshot appends consistent copies of the published traces to dst, newest
// first, skipping slots that are being written. The result length may be
// less than Len under concurrent writes.
func (r *TraceRing) Snapshot(dst []Trace) []Trace {
	h := r.head.Load()
	n := uint64(len(r.slots))
	count := h
	if count > n {
		count = n
	}
	for i := uint64(0); i < count; i++ {
		s := &r.slots[(h-1-i)%n]
		if !s.mu.TryLock() {
			continue // mid-write: skip rather than stall the writer's frame
		}
		if s.full {
			dst = append(dst, s.tr)
		}
		s.mu.Unlock()
	}
	return dst
}

// TraceSink is a hop's trace collection point: where sampled traces and
// slow frames are deposited, and the sampling/threshold policy that decides
// when. A nil *TraceSink disables collection entirely (the serving loops
// nil-check once per frame). All fields are set before serving starts and
// read-only afterwards, except the atomics.
type TraceSink struct {
	Ring *TraceRing // sampled traces (nil: sampling only counts)
	Slow *TraceRing // slow frames (nil: slowlog disabled)

	// SampleEvery enables self-sampling: every Nth eligible frame is traced
	// even if the caller didn't request it. 0 disables self-sampling
	// (explicitly traced frames are still deposited).
	SampleEvery int64
	// SlowNs, when > 0, captures any frame whose total time exceeds it into
	// Slow — sampled or not. This is the always-on flight recorder.
	SlowNs int64
	// OnSlow, when non-nil, is called synchronously with each slow-frame
	// trace after it is deposited (the hook daemons use to log slow frames;
	// it must be cheap or rate-limited by the callee).
	OnSlow func(*Trace)

	Sampled  Counter // traces deposited into Ring
	SlowHits Counter // traces deposited into Slow

	ctr atomic.Int64
}

// SampleNow reports whether self-sampling selects the current frame: true
// for every SampleEvery-th call. Never true when SampleEvery <= 0.
func (s *TraceSink) SampleNow() bool {
	if s == nil || s.SampleEvery <= 0 {
		return false
	}
	return s.ctr.Add(1)%s.SampleEvery == 0
}

// SlowThreshold returns the slow-frame threshold in nanoseconds (0 when the
// sink is nil or the slowlog disabled), so frame loops can test cheaply.
func (s *TraceSink) SlowThreshold() int64 {
	if s == nil {
		return 0
	}
	return s.SlowNs
}

// Deposit stores a completed sampled trace.
func (s *TraceSink) Deposit(tr *Trace) {
	if s == nil || s.Ring == nil {
		return
	}
	s.Ring.Put(tr)
	s.Sampled.Inc()
}

// DepositSlow stores a slow-frame trace and fires OnSlow.
func (s *TraceSink) DepositSlow(tr *Trace) {
	if s == nil || s.Slow == nil {
		return
	}
	s.Slow.Put(tr)
	s.SlowHits.Inc()
	if s.OnSlow != nil {
		s.OnSlow(tr)
	}
}

// Register exposes the sink's capture counters on reg under the trace_*
// family names.
func (s *TraceSink) Register(reg *Registry) {
	reg.Counter("trace_sampled_total", "Traces captured into the sampled ring.", &s.Sampled)
	reg.Counter("trace_slow_frames_total", "Frames captured into the slow-frame log.", &s.SlowHits)
}

// traceIDState seeds the process-local trace id generator with address-space
// and time entropy; NewTraceID steps it with splitmix64, so ids are unique
// within a process and collide across processes only by 64-bit accident.
var traceIDState atomic.Uint64

func init() {
	seed := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	traceIDState.Store(seed | 1)
}

// NewTraceID returns a fresh nonzero 64-bit trace id.
func NewTraceID() uint64 {
	for {
		x := traceIDState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// traceJSON is the wire shape of one trace in the /debug/traces and
// /debug/slowlog JSON documents.
type traceJSON struct {
	ID      string           `json:"trace_id"`
	Unix    int64            `json:"unix"`
	Op      uint8            `json:"op"`
	Pairs   int64            `json:"pairs"`
	TotalNs int64            `json:"total_ns"`
	Stages  []traceStageJSON `json:"stages"`
}

type traceStageJSON struct {
	Stage string `json:"stage"`
	Hop   string `json:"hop"`
	Ns    int64  `json:"ns"`
}

// TraceID formats a trace id the way every surface renders it: fixed-width
// lowercase hex, the join key between /debug/traces, the slowlog, histogram
// exemplars and slog trace_id attributes.
func TraceID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// exemplarJSON links one histogram latency bucket to the trace id last
// observed in it.
type exemplarJSON struct {
	Metric   string `json:"metric"`
	Labels   string `json:"labels,omitempty"`
	BucketLe int64  `json:"bucket_le"` // upper bound ns; -1 for +Inf
	TraceID  string `json:"trace_id"`
}

// tracesDoc is the top-level /debug/traces JSON document.
type tracesDoc struct {
	Traces    []traceJSON    `json:"traces"`
	Exemplars []exemplarJSON `json:"exemplars,omitempty"`
}

// WriteTracesJSON renders ring's snapshot (newest first) as a JSON document,
// including histogram exemplars gathered from reg when reg is non-nil.
func WriteTracesJSON(w io.Writer, ring *TraceRing, reg *Registry) error {
	doc := tracesDoc{Traces: []traceJSON{}}
	if ring != nil {
		for _, tr := range ring.Snapshot(nil) {
			tj := traceJSON{
				ID:      TraceID(tr.ID),
				Unix:    tr.Unix,
				Op:      tr.Op,
				Pairs:   tr.Pairs,
				TotalNs: tr.TotalNs,
				Stages:  make([]traceStageJSON, 0, tr.NStages),
			}
			for i := int32(0); i < tr.NStages; i++ {
				s := tr.Stages[i]
				tj.Stages = append(tj.Stages, traceStageJSON{
					Stage: StageName(s.Stage),
					Hop:   HopName(s.Hop),
					Ns:    s.Ns,
				})
			}
			doc.Traces = append(doc.Traces, tj)
		}
	}
	if reg != nil {
		for _, ex := range reg.Exemplars() {
			doc.Exemplars = append(doc.Exemplars, exemplarJSON{
				Metric:   ex.Name,
				Labels:   ex.Labels,
				BucketLe: ex.BucketLe,
				TraceID:  TraceID(ex.TraceID),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&doc)
}
