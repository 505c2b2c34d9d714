package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/adjserve"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/obs"
	"repro/internal/schemes/distance"
)

// setupTimes is the set-up ladder: the wall time of one public call (or one
// short run of them) per layer, summing — with the glue between them — to
// total, the end-to-end setup_s of one rebuild. A layer that is not on the
// workload's path stays 0.
type setupTimes struct {
	encode          time.Duration // core: FatThinScheme.EncodeParallel
	distEncode      time.Duration // distance: PLLScheme.EncodeArena
	shardSplit      time.Duration // core: ShardLabelArenas
	write           time.Duration // labelstore: New*ArenaFile + Write + Close, every store file
	open            time.Duration // labelstore: Open (mmap), every store file
	engineBuild     time.Duration // core: NewQueryEngineFromPermutedArena (+ SetShard), every engine
	distEngineBuild time.Duration // core: NewDistEngine
	fleetBoot       time.Duration // adjserve: listeners, router handshake, first verified frame
	total           time.Duration
}

// fleet is one booted serving deployment: what plserve (one per store file)
// and plroute would be as processes, wired the same way in this process on
// loopback listeners.
type fleet struct {
	addr    string // where clients dial: the lone server, or the router
	servers []*adjserve.Server
	engines []*core.EngineMetrics // one per server, attached as plserve -admin-addr attaches them
	router  *adjserve.Router
	stores  []*labelstore.MappedFile
	serving sync.WaitGroup

	// The lone server's engine and id-indexed label views, for the ladder's
	// in-process rungs. All nil for a routed fleet.
	adj    *core.QueryEngine
	dist   *core.DistEngine
	labels []bitstr.String

	storeBytes int64
	// What was encoded, kept for the cost model: one of the two.
	lab   *core.Labeling
	arena *core.DistArena
}

// Close drains the fleet front to back and unmaps its stores.
func (f *fleet) Close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
	for _, m := range f.stores {
		m.Close()
	}
}

// newTraceSink is the sink plserve and plroute install with their default
// flags: downstream-traced frames echo their stages, nothing is self-sampled,
// no slow log.
func newTraceSink() *obs.TraceSink {
	return &obs.TraceSink{Ring: obs.NewTraceRing(256), Slow: obs.NewTraceRing(64)}
}

// listen starts serve on a fresh loopback listener and returns its address.
// serve is Server.Serve or Router.Serve: it returns ErrClosed at Close, and a
// listener that died earlier fails the next frame, which the oracle counts.
func (f *fleet) listen(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		serve(ln)
	}()
	return ln.Addr().String(), nil
}

// store persists file at path the way pllabel does, then maps it the way
// plserve does, timing the two halves.
func (f *fleet) store(path string, file *labelstore.File, t *setupTimes) (*labelstore.File, error) {
	start := time.Now()
	fl, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := labelstore.Write(fl, file); err != nil {
		fl.Close()
		return nil, err
	}
	if err := fl.Close(); err != nil {
		return nil, err
	}
	t.write += time.Since(start)

	start = time.Now()
	mf, err := labelstore.Open(path)
	if err != nil {
		return nil, err
	}
	t.open += time.Since(start)
	f.stores = append(f.stores, mf)
	if !mf.Mapped() {
		return nil, fmt.Errorf("store %s was not memory-mapped", path)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	f.storeBytes += fi.Size()
	return mf.File, nil
}

// adjServer builds the engine and server for one adjacency store exactly as
// plserve's run does: engine over the mapped arena, shard map attached when
// the store carries one, engine metrics attached, trace sink installed, no
// pair cache, no sorted batches, no shed depth.
func (f *fleet) adjServer(store *labelstore.File, t *setupTimes) (*core.QueryEngine, error) {
	start := time.Now()
	slab, bitLens, order, ok := store.ArenaLayout()
	if !ok {
		return nil, errors.New("store is not arena-backed")
	}
	eng, err := core.NewQueryEngineFromPermutedArena(slab, bitLens, order)
	if err != nil {
		return nil, err
	}
	if m, ok := store.Shard(); ok {
		if err := eng.SetShard(m); err != nil {
			return nil, err
		}
	}
	t.engineBuild += time.Since(start)
	em := new(core.EngineMetrics)
	eng.AttachMetrics(em)
	f.engines = append(f.engines, em)
	srv := adjserve.NewServer(eng, 0)
	srv.SetTraceSink(newTraceSink())
	f.servers = append(f.servers, srv)
	return eng, nil
}

// buildFleet runs the workload's whole write side — encode, persist, map,
// build engines, boot, answer one verified frame — timing each layer. Store
// files go under dir, overwriting the previous rebuild's.
func buildFleet(w workload, g *graph.Graph, r *ring, dir string) (*fleet, setupTimes, error) {
	var (
		f     = new(fleet)
		t     setupTimes
		begin = time.Now()
		path  = filepath.Join(dir, w.name+".pllb")
		err   error
	)
	if w.dist {
		err = f.prepareDist(g, path, &t)
	} else {
		err = f.prepareAdj(w, g, path, &t)
	}
	if err == nil {
		err = f.boot(w, r, &t)
	}
	if err != nil {
		f.Close()
		return nil, t, err
	}
	t.total = time.Since(begin)
	return f, t, nil
}

// prepareDist encodes PLL labels, stores them, and builds the distance server.
func (f *fleet) prepareDist(g *graph.Graph, path string, t *setupTimes) error {
	scheme := distance.PLLScheme{}
	start := time.Now()
	arena, err := scheme.EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		return err
	}
	t.distEncode = time.Since(start)
	f.arena = arena

	start = time.Now()
	file, err := labelstore.NewDistArenaFile(scheme.Name(), storeParams(g), arena)
	if err != nil {
		return err
	}
	t.write = time.Since(start)
	store, err := f.store(path, file, t)
	if err != nil {
		return err
	}

	start = time.Now()
	da, ok := store.DistArena()
	if !ok {
		return errors.New("distance store lost its scheme record")
	}
	deng, err := core.NewDistEngine(da)
	if err != nil {
		return err
	}
	t.distEngineBuild = time.Since(start)
	em := new(core.EngineMetrics)
	deng.AttachMetrics(em)
	f.engines = append(f.engines, em)
	srv := adjserve.NewServer(nil, 0)
	srv.SetDistEngine(deng)
	srv.SetTraceSink(newTraceSink())
	f.servers = append(f.servers, srv)
	f.dist, f.labels = deng, store.Labels
	return nil
}

// prepareAdj encodes fat/thin labels and builds one server over the whole
// store, or — routed — one per shard store as pllabel -shards writes them:
// owned thin labels in full, the fat set replicated, foreign thin labels cut
// to header stubs.
func (f *fleet) prepareAdj(w workload, g *graph.Graph, path string, t *setupTimes) error {
	scheme := core.NewPowerLawScheme(alpha)
	scheme.SetLayout(core.LayoutDegree)
	start := time.Now()
	lab, err := scheme.EncodeParallel(g, 0)
	if err != nil {
		return err
	}
	t.encode = time.Since(start)
	f.lab = lab

	start = time.Now()
	slab, order, ok := lab.ArenaLayout()
	if !ok {
		return errors.New("labeling is not arena-backed")
	}
	bitLens := make([]int, lab.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			return err
		}
		bitLens[v] = l.Len()
	}
	if !w.routed() {
		file, err := labelstore.NewPermutedArenaFile(lab.Scheme(), storeParams(g), slab, bitLens, order)
		if err != nil {
			return err
		}
		t.write = time.Since(start)
		store, err := f.store(path, file, t)
		if err != nil {
			return err
		}
		f.adj, err = f.adjServer(store, t)
		f.labels = store.Labels
		return err
	}

	arenas, err := core.ShardLabelArenas(slab, bitLens, order, w.shards, core.ShardRange)
	if err != nil {
		return err
	}
	t.shardSplit = time.Since(start)
	for i, a := range arenas {
		start = time.Now()
		m := core.ShardMap{Count: w.shards, Index: i, Fn: core.ShardRange}
		file, err := labelstore.NewShardArenaFile(lab.Scheme(), storeParams(g), a.Slab, a.BitLens, order, m)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		t.write += time.Since(start)
		store, err := f.store(path+".shard"+strconv.Itoa(i), file, t)
		if err != nil {
			return err
		}
		if _, err := f.adjServer(store, t); err != nil {
			return err
		}
	}
	return nil
}

func storeParams(g *graph.Graph) map[string]string {
	return map[string]string{"n": strconv.Itoa(g.N())}
}

// boot puts every prepared server on a loopback listener, fronts them with a
// router when the workload is routed, and sends ring frame 0 through a fresh
// client: the fleet counts as up once that frame matches the oracle.
func (f *fleet) boot(w workload, r *ring, t *setupTimes) error {
	start := time.Now()
	addrs := make([]string, len(f.servers))
	for i, srv := range f.servers {
		var err error
		if addrs[i], err = f.listen(srv.Serve); err != nil {
			return err
		}
	}
	f.addr = addrs[0]
	if w.routed() {
		var err error
		if f.router, err = adjserve.NewRouter(addrs, 0); err != nil {
			return err
		}
		f.router.SetTraceSink(newTraceSink())
		if f.addr, err = f.listen(f.router.Serve); err != nil {
			return err
		}
	}
	c := adjserve.NewClient(f.addr)
	defer c.Close()
	wrong, err := callFrame(c, w.dist, r, 0, new(answers), nil)
	if err != nil {
		return fmt.Errorf("first frame: %w", err)
	}
	if wrong != 0 {
		return fmt.Errorf("first frame: %d of %d answers differ from the oracle", wrong, r.batch)
	}
	t.fleetBoot = time.Since(start)
	return nil
}

// costModel is the paper's own cost accounting for the labeling a fleet
// serves. Everything in it is exact for a seed.
type costModel struct {
	bitsMax   int
	bitsMean  float64
	bitsTotal int64
	fatCount  int     // vertices of degree >= tau; 0 on the distance plane
	tau       int     // Theorem 4's threshold; 0 on the distance plane
	thm4Ratio float64 // bitsMax over Theorem 4's bound; 0 on the distance plane
}

func (f *fleet) costModel(g *graph.Graph) (costModel, error) {
	var c costModel
	if f.arena != nil {
		for _, bits := range f.arena.BitLens {
			c.bitsMax = max(c.bitsMax, bits)
			c.bitsTotal += int64(bits)
		}
		c.bitsMean = float64(c.bitsTotal) / float64(len(f.arena.BitLens))
		return c, nil
	}
	st := f.lab.Stats()
	c.bitsMax, c.bitsMean, c.bitsTotal = st.Max, st.Mean, st.Total
	var err error
	if c.tau, err = core.NewPowerLawScheme(alpha).Threshold(g); err != nil {
		return c, err
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) >= c.tau {
			c.fatCount++
		}
	}
	bound, err := core.PowerLawTheoremBound(alpha, g.N())
	if err != nil {
		return c, err
	}
	c.thm4Ratio = float64(st.Max) / float64(bound)
	return c, nil
}
