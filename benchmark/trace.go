package main

import (
	"slices"

	"repro/internal/obs"
)

// hopClass folds obs hop labels into the three places a stage can run, seen
// from the benchmark's client: in the client itself, in the hop it dialed
// (server or router), or in a shard behind the router.
type hopClass uint8

const (
	hopLocal hopClass = iota
	hopPeer
	hopShard
	hopClasses
)

func classOf(hop uint8) hopClass {
	switch hop {
	case obs.HopSelf:
		return hopLocal
	case obs.HopPeer:
		return hopPeer
	}
	return hopShard
}

// stageKeys are the (stage, hop) spans the traced phase reports, in output
// order. The spans themselves are recorded by the existing public tracing
// plane; the benchmark only reads the tally each traced call fills.
var stageKeys = []struct {
	metric string
	stage  uint8
	hop    hopClass
}{
	{"trace.encode_local_us", obs.StageEncode, hopLocal},
	{"trace.flush_local_us", obs.StageFlush, hopLocal},
	{"trace.net_local_us", obs.StageNet, hopLocal},
	{"trace.queue_peer_us", obs.StageQueue, hopPeer},
	{"trace.read_peer_us", obs.StageRead, hopPeer},
	{"trace.probe_peer_us", obs.StageProbe, hopPeer},
	{"trace.scatter_peer_us", obs.StageScatter, hopPeer},
	{"trace.upstream_peer_us", obs.StageUpstream, hopPeer},
	{"trace.gather_peer_us", obs.StageGather, hopPeer},
	{"trace.probe_shard_us", obs.StageProbe, hopShard},
	{"trace.net_shard_us", obs.StageNet, hopShard},
}

const maxStage = obs.StageFlush

// stageIndex maps (stage, hop class) to its stageKeys position, -1 when the
// span is not reported.
var stageIndex = func() (t [maxStage + 1][hopClasses]int8) {
	for s := range t {
		for h := range t[s] {
			t[s][h] = -1
		}
	}
	for i, k := range stageKeys {
		t[k.stage][k.hop] = int8(i)
	}
	return t
}()

// stageAgg is one caller's trace aggregate: per reported span a sample array
// sized before the phase, plus the nanosecond sums the shares are built from.
type stageAgg struct {
	samples [][]uint32 // by stageKeys position, ns
	dropped int64

	wallNs     int64 // caller-observed wall time of the traced calls
	topNs      int64 // local + peer stages: what must add up to the wall time
	netLocalNs int64
	probeNs    int64 // engine probe time wherever it ran: peer, or every shard
	upstreamNs int64
}

func newStageAgg(frameCap, shards int) *stageAgg {
	a := &stageAgg{samples: make([][]uint32, len(stageKeys))}
	for i, k := range stageKeys {
		n := frameCap
		if k.hop == hopShard {
			n *= max(shards, 1) // one entry per shard per frame
		}
		a.samples[i] = make([]uint32, 0, n)
	}
	return a
}

// fold adds one successful traced call's tally. wallNs is the call's wall
// time as its caller saw it.
func (a *stageAgg) fold(t *obs.SpanTally, wallNs int64) {
	a.wallNs += wallNs
	for _, st := range t.Stages() {
		if st.Stage > maxStage {
			continue
		}
		class := classOf(st.Hop)
		if class != hopShard {
			// Shard stages nest inside the peer's upstream stage.
			a.topNs += st.Ns
		}
		switch {
		case st.Stage == obs.StageNet && class == hopLocal:
			a.netLocalNs += st.Ns
		case st.Stage == obs.StageProbe:
			a.probeNs += st.Ns
		case st.Stage == obs.StageUpstream && class == hopPeer:
			a.upstreamNs += st.Ns
		}
		i := stageIndex[st.Stage][class]
		if i < 0 {
			continue
		}
		if len(a.samples[i]) == cap(a.samples[i]) {
			a.dropped++
			continue
		}
		a.samples[i] = append(a.samples[i], uint32(min(st.Ns, 1<<32-1)))
	}
}

// traceSummary is the traced phase over all callers.
type traceSummary struct {
	p50us         []float64 // by stageKeys position; 0 when the span never occurred
	netLocalShare float64
	probeShare    float64
	upstreamShare float64
	coverage      float64 // top-level stage sum over caller-observed wall time
	dropped       int64
}

func summarizeStages(aggs []*stageAgg) *traceSummary {
	s := &traceSummary{p50us: make([]float64, len(stageKeys))}
	var wall, top, netLocal, probe, upstream int64
	for _, a := range aggs {
		wall += a.wallNs
		top += a.topNs
		netLocal += a.netLocalNs
		probe += a.probeNs
		upstream += a.upstreamNs
		s.dropped += a.dropped
	}
	var all []uint32
	for i := range stageKeys {
		all = all[:0]
		for _, a := range aggs {
			all = append(all, a.samples[i]...)
		}
		slices.Sort(all)
		s.p50us[i] = quantileSorted(all, 0.5) / 1e3
	}
	if wall > 0 {
		s.netLocalShare = float64(netLocal) / float64(wall)
		s.probeShare = float64(probe) / float64(wall)
		s.upstreamShare = float64(upstream) / float64(wall)
		s.coverage = float64(top) / float64(wall)
	}
	return s
}
