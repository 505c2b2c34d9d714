package main

import (
	"repro/internal/obs"
)

// counters is a reading of the fleet's own always-on instrumentation — the
// public metrics a scrape of every plserve and the plroute would return —
// summed over the fleet. Two readings bracket a stretch of work.
type counters struct {
	// core.EngineMetrics, every engine
	queries, fat, thin, self int64
	probe                    histSum
	// adjserve.ServerMetrics, every server
	serverFrame                          histSum
	errorFrames, shedFrames, writeErrors int64
	// the client-facing listener: the lone server's, or the router's
	frames, bytesIn, bytesOut int64
	// adjserve.RouterMetrics; zero without a router
	routerFrame histSum
	upstreamRTT histSum
	upBatches   int64
	upPairs     []int64 // by shard
}

// histSum is the sum and count of an obs.Histogram, enough for a mean over a
// bracketed stretch.
type histSum struct{ sum, count int64 }

func (h *histSum) add(o *obs.Histogram) {
	h.sum += o.Sum()
	h.count += o.Count()
}

func (h histSum) sub(b histSum) histSum { return histSum{h.sum - b.sum, h.count - b.count} }

// meanUs is the mean observation in µs, 0 when nothing was observed.
func (h histSum) meanUs() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count) / 1e3
}

func (f *fleet) counters() counters {
	var c counters
	for _, em := range f.engines {
		c.queries += em.Queries.Load()
		c.fat += em.FatBranch.Load()
		c.thin += em.ThinBranch.Load()
		c.self += em.SelfBranch.Load()
		c.probe.add(&em.ProbeNs)
	}
	for _, s := range f.servers {
		m := s.Metrics()
		for i := range m.FrameLatencyNs {
			c.serverFrame.add(&m.FrameLatencyNs[i])
		}
		c.errorFrames += m.ErrorFrames.Load()
		c.shedFrames += m.ShedFrames.Load()
		c.writeErrors += m.WriteErrors.Load()
	}
	if f.router == nil {
		m := f.servers[0].Metrics()
		c.frames, c.bytesIn, c.bytesOut = m.Frames.Load(), m.BytesIn.Load(), m.BytesOut.Load()
		return c
	}
	m := f.router.Metrics()
	c.frames, c.bytesIn, c.bytesOut = m.Frames.Load(), m.BytesIn.Load(), m.BytesOut.Load()
	c.errorFrames += m.ErrorFrames.Load()
	c.shedFrames += m.ShedFrames.Load()
	for i := range m.FrameLatencyNs {
		c.routerFrame.add(&m.FrameLatencyNs[i])
	}
	c.upPairs = make([]int64, len(m.Upstreams))
	for i := range m.Upstreams {
		u := &m.Upstreams[i]
		c.upBatches += u.Batches.Load()
		c.upPairs[i] = u.Pairs.Load()
		c.upstreamRTT.add(&u.LatencyNs)
		c.errorFrames += u.Errors.Load()
		c.shedFrames += u.Sheds.Load()
	}
	return c
}

// sub returns the work done between reading b and reading c.
func (c counters) sub(b counters) counters {
	d := counters{
		queries: c.queries - b.queries, fat: c.fat - b.fat, thin: c.thin - b.thin, self: c.self - b.self,
		probe:       c.probe.sub(b.probe),
		serverFrame: c.serverFrame.sub(b.serverFrame),
		errorFrames: c.errorFrames - b.errorFrames, shedFrames: c.shedFrames - b.shedFrames, writeErrors: c.writeErrors - b.writeErrors,
		frames: c.frames - b.frames, bytesIn: c.bytesIn - b.bytesIn, bytesOut: c.bytesOut - b.bytesOut,
		routerFrame: c.routerFrame.sub(b.routerFrame),
		upstreamRTT: c.upstreamRTT.sub(b.upstreamRTT),
		upBatches:   c.upBatches - b.upBatches,
		upPairs:     make([]int64, len(c.upPairs)),
	}
	for i := range d.upPairs {
		d.upPairs[i] = c.upPairs[i] - b.upPairs[i]
	}
	return d
}

// upstreamSkew is the busiest shard's pair count over the mean shard's: the
// slowest shard sets a scattered frame's time. 0 without a router.
func (c counters) upstreamSkew() float64 {
	var sum, top int64
	for _, p := range c.upPairs {
		sum += p
		top = max(top, p)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(c.upPairs)) / float64(sum)
}
