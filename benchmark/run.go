package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/adjserve"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
)

// measured is everything one run measured, before report.go names it.
type measured struct {
	w     workload
	seed  int64
	smoke bool
	g     *graph.Graph
	ring  *ring
	walls map[string]float64 // wall seconds by phase, for the stamp

	setups []setupTimes // one per rebuild
	fleet  *fleet       // the last rebuild, which the phases drive
	cost   costModel

	// layers pass only
	layers bool
	ladder ladder
	counts counters     // over one fixed-work pass at the top rung
	traced *phaseResult // the closed loop again, every frame traced

	warm, main *phaseResult
	busy       counters // the fleet's own instrumentation over the main phase
	total      counters // and over the whole run
	redials    int64
}

func (m *measured) lap(phase string, since time.Time) {
	m.walls[phase] = time.Since(since).Seconds()
}

// run executes one workload once and writes the report to out. correct is
// false when any frame failed or any answer differed from the oracle.
func run(opt options, out io.Writer) (correct bool, err error) {
	begin := time.Now()
	w, err := findWorkload(opt.workload)
	if err != nil {
		return false, err
	}
	sz := fullSizing(opt.seconds)
	if opt.smoke {
		w, sz = smoke(w)
	}
	m := &measured{w: w, seed: opt.seed, smoke: opt.smoke, layers: opt.layers, walls: map[string]float64{}}

	t := time.Now()
	if m.g, err = gen.ChungLuPowerLawParallel(1<<w.logN, alpha, wmin, opt.seed, 0); err != nil {
		return false, err
	}
	m.lap("gen", t)

	t = time.Now()
	if m.ring, err = buildRing(w, m.g, opt.seed); err != nil {
		return false, err
	}
	if w.dist {
		arena, err := distance.PLLScheme{}.EncodeArena(m.g, 0, core.LayoutDegree)
		if err != nil {
			return false, err
		}
		ref, err := core.NewDistEngine(arena)
		if err != nil {
			return false, err
		}
		if err := m.ring.fillDistOracle(m.g, ref); err != nil {
			return false, err
		}
	} else {
		m.ring.fillAdjOracle(m.g)
	}
	m.lap("oracle", t)

	// The write side, rebuilt from the in-memory graph several times over: one
	// rebuild takes between a third of a second and a second, too short to
	// compare across runs, so setup_s is the median rebuild.
	t = time.Now()
	m.setups = make([]setupTimes, sz.rebuilds)
	for i := range m.setups {
		if m.fleet != nil {
			m.fleet.Close()
		}
		if m.fleet, m.setups[i], err = buildFleet(w, m.g, m.ring, opt.dir); err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
	}
	defer m.fleet.Close()
	m.lap("setup", t)
	if m.cost, err = m.fleet.costModel(m.g); err != nil {
		return false, err
	}
	if opt.faults.flipWant {
		m.ring.flipLast()
	}

	if opt.layers {
		if err := m.ladderAndCounts(sz, opt.dir); err != nil {
			return false, err
		}
	}

	clients := make([]*adjserve.Client, conns)
	queriers := make([]querier, conns)
	for i := range clients {
		clients[i] = adjserve.NewClient(m.fleet.addr)
		defer clients[i].Close()
		queriers[i] = clients[i]
		if opt.faults.wrap != nil {
			queriers[i] = opt.faults.wrap(clients[i])
		}
	}
	ref := newRefKernel(sz.refKernel)
	runtime.GC() // the phases start from a collected heap and allocate nothing

	t = time.Now()
	m.warm = runPhase(queriers, w, m.ring, phaseShape{slice: sz.warmup, slices: 1}, 0, false, nil)
	m.lap("warmup", t)

	shape := phaseShape{slice: sz.slice, slices: sz.slices}
	if opt.layers {
		shape.slices = sz.layerSlices
	}
	t = time.Now()
	before := m.fleet.counters()
	m.main = runPhase(queriers, w, m.ring, shape, latCapFor(m.warm, shape), false, ref)
	m.busy = m.fleet.counters().sub(before)
	m.lap("measured", t)

	if opt.layers {
		// Back to back with the untraced phase, so their ratio is the tracing
		// plane's own cost.
		t = time.Now()
		m.traced = runPhase(queriers, w, m.ring, shape, latCapFor(m.main, shape), true, ref)
		m.lap("traced", t)
	}
	for _, c := range clients {
		m.redials += c.Metrics().Redials.Load()
	}
	m.total = m.fleet.counters()
	m.walls["total"] = time.Since(begin).Seconds()
	return m.report(out)
}

// ladderAndCounts is the part of the layers pass that runs one caller at a
// time: the rung ladder, then one more fixed-work pass at the top rung
// bracketed by counter readings, whose counts repeat exactly for a seed.
func (m *measured) ladderAndCounts(sz sizing, dir string) error {
	direct, routed := m.fleet, (*fleet)(nil)
	if m.w.routed() {
		// The rungs below the router need a lone server over the unsharded
		// store; it is not part of the workload's fleet or of its setup_s.
		lone := m.w
		lone.shards = 0
		dir = filepath.Join(dir, "lone")
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		var err error
		if direct, _, err = buildFleet(lone, m.g, m.ring, dir); err != nil {
			return fmt.Errorf("set-up of the lone server: %w", err)
		}
		defer direct.Close()
		routed = m.fleet
	}
	t := time.Now()
	var err error
	if m.ladder, err = runLadder(m.w, m.ring, direct, routed, sz.ladderPasses); err != nil {
		return err
	}
	m.lap("ladder", t)

	t = time.Now()
	c := adjserve.NewClient(m.fleet.addr)
	defer c.Close()
	pairs := 1 << m.w.logFixed
	before := m.fleet.counters()
	if _, err := timeRung("counts", 1, pairs, servedPass(c, m.w, m.ring, pairs/m.w.batch)); err != nil {
		return err
	}
	m.counts = m.fleet.counters().sub(before)
	m.lap("counts", t)
	return nil
}
