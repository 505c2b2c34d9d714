// Command pllabel labels a graph with a chosen adjacency labeling scheme,
// reports label-size statistics, and verifies decode correctness against
// the input graph.
//
// Usage:
//
//	pllabel -scheme powerlaw -alpha 2.5 < graph.el
//	pllabel -scheme sparse   -in graph.el
//	pllabel -scheme auto     -in graph.el     (fit α, then Theorem 4)
//	pllabel -scheme forest   -in graph.el     (Proposition 5)
//	pllabel -scheme onequery -in graph.el     (Section 6, 1-query)
//	pllabel -scheme nbrlist | adjmatrix       (baselines)
//
// -o writes a label store for plserve and plquery. Only schemes an engine
// serves are stored: the fat/thin schemes (powerlaw, sparse, auto, fixed),
// nbrlist, and the distance schemes; -o with forest, onequery or adjmatrix
// is refused and writes nothing (they label, report and verify in memory).
//
// Distance labelings (the second query plane; serve with plserve, query
// with plquery -dist):
//
//	pllabel -scheme dist-pll     -in graph.el -o d.pllb   (pruned landmarks)
//	pllabel -scheme dist-bounded -f 3 -in graph.el        (Lemma 7, bound f)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/powerlaw"
	"repro/internal/schemes/baseline"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
	"repro/internal/schemes/onequery"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pllabel: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("pllabel", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "auto", "powerlaw | sparse | auto | fixed | forest | onequery | nbrlist | adjmatrix | dist-pll | dist-bounded")
		alpha      = fs.Float64("alpha", 2.5, "power-law exponent (powerlaw and dist-bounded schemes)")
		c          = fs.Float64("c", 0, "sparsity constant (sparse scheme; 0 = derive m/n)")
		tau        = fs.Int("tau", 0, "fixed threshold (fixed scheme)")
		bound      = fs.Int("f", 2, "distance bound f(n) (dist-bounded scheme)")
		in         = fs.String("in", "", "input edge list (default stdin)")
		out        = fs.String("o", "", "write the labeling to a label store file for plserve and plquery (fat/thin, nbrlist and distance schemes)")
		verify     = fs.Bool("verify", true, "verify decode correctness")
		fit        = fs.Bool("fit", false, "report the fitted power-law exponent")
		analyze    = fs.Bool("analyze", false, "report clustering and assortativity (O(m·Δ) time)")
		shards     = fs.Int("shards", 0, "split the store into N shard files <o>.shard0..N-1 for plserve -labels, one per file, behind plserve -shards (0 = one whole store)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the encode to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return fmt.Errorf("read graph: %w", err)
	}
	fmt.Fprintf(stdout, "graph: n=%d m=%d maxdeg=%d meandeg=%.2f\n", g.N(), g.M(), g.MaxDegree(), g.MeanDegree())

	if *analyze {
		fmt.Fprintf(stdout, "analysis: triangles=%d clustering=%.4f assortativity=%.4f\n",
			g.Triangles(), g.GlobalClustering(), g.DegreeAssortativity())
	}

	if *fit {
		degrees := g.Degrees()
		if f, err := powerlaw.FitAlpha(degrees); err == nil {
			fmt.Fprintf(stdout, "fit: alpha=%.3f xmin=%d ks=%.4f tail=%d\n", f.Alpha, f.Xmin, f.KS, f.NTail)
		} else {
			fmt.Fprintf(stdout, "fit: %v\n", err)
		}
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *schemeName == "dist-pll" || *schemeName == "dist-bounded" {
		// The distance plane: its own encode pipeline (DistArena, not
		// Labeling) and a scheme-stamped store. Distance stores are
		// replicated whole for serving, never sharded.
		if *shards != 0 {
			return fmt.Errorf("distance stores are served by replica fleets, not shard partitions; drop -shards")
		}
		return runDistance(stdout, g, *schemeName, *alpha, *bound, *out, *verify)
	}
	scheme, err := pick(*schemeName, *alpha, *c, *tau)
	if err != nil {
		return err
	}
	start := time.Now()
	lab, err := encode(scheme, g)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	printEncode(stdout, time.Since(start), g.N())
	fmt.Fprintf(stdout, "scheme: %s\n", lab.Scheme())
	_, order, _ := lab.ArenaLayout()
	printLayout(stdout, order)
	printSizeStats(stdout, lab.Stats())
	if ft, ok := scheme.(*core.FatThinScheme); ok {
		if err := printThinEdges(stdout, g, lab, ft); err != nil {
			return err
		}
	}
	if *verify {
		if err := lab.Verify(g); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Fprintln(stdout, "verify: ok")
	}
	if *shards != 0 {
		// Only the fat/thin threshold schemes (powerlaw, sparse, auto, fixed)
		// are split. The rule is the scheme, not the label layout: nbrlist
		// shares the layout and is refused like the other baselines.
		if _, ok := scheme.(*core.FatThinScheme); !ok {
			return fmt.Errorf("-shards: scheme %s is not a fat/thin threshold scheme; sharding needs the fat/thin pipeline", *schemeName)
		}
		if *shards < 2 {
			return fmt.Errorf("-shards %d: a partition needs at least 2 shards", *shards)
		}
		if *out == "" {
			return fmt.Errorf("-shards requires -o (shard files are named <o>.shardI)")
		}
		if err := saveShardStores(stdout, *out, g.N(), lab, *shards); err != nil {
			return fmt.Errorf("write shard stores: %w", err)
		}
	} else if *out != "" {
		// Every store pllabel writes opens: a scheme whose labels no engine
		// reads (forest, onequery, adjmatrix) is refused by the readers' own
		// rule, before the file is created.
		if err := labelstore.CheckServable(lab.Scheme()); err != nil {
			return fmt.Errorf("-o: %w; no engine serves it", err)
		}
		if err := saveStore(*out, g.N(), lab); err != nil {
			return fmt.Errorf("write label store: %w", err)
		}
		fmt.Fprintf(stdout, "label store written to %s\n", *out)
	}
	return nil
}

// runDistance is the encode pipeline for the distance plane: a parallel,
// degree-ordered arena encode (plan → prefix-sum → fill, same shape as the
// adjacency pipeline), size statistics over the packed labels, BFS
// spot-verification through the serving engine, and a scheme-stamped store
// that plserve and plquery -dist load zero-copy.
func runDistance(stdout io.Writer, g *graph.Graph, name string, alpha float64, f int, out string, verify bool) error {
	var (
		arena       *core.DistArena
		schemeLabel string
		err         error
	)
	start := time.Now()
	switch name {
	case "dist-pll":
		s := distance.PLLScheme{}
		schemeLabel = s.Name()
		arena, err = s.EncodeArena(g, 0, core.LayoutDegree)
	case "dist-bounded":
		if f < 1 {
			return fmt.Errorf("dist-bounded needs -f >= 1")
		}
		s := distance.Scheme{Alpha: alpha, F: f}
		schemeLabel = s.Name()
		arena, err = s.EncodeArena(g, 0, core.LayoutDegree)
	}
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	printEncode(stdout, time.Since(start), g.N())
	fmt.Fprintf(stdout, "scheme: %s\n", schemeLabel)
	printLayout(stdout, arena.Order)
	printSizeStats(stdout, core.SizeStatsOf(arena.BitLens))
	if verify {
		eng, err := core.NewDistEngine(arena)
		if err != nil {
			return fmt.Errorf("verification FAILED: engine rejects the arena: %w", err)
		}
		if err := verifyDistance(g, eng); err != nil {
			return fmt.Errorf("verification FAILED: %w", err)
		}
		fmt.Fprintln(stdout, "verify: ok")
	}
	if out != "" {
		store, err := labelstore.NewDistArenaFile(schemeLabel, map[string]string{"n": strconv.Itoa(g.N())}, arena)
		if err != nil {
			return err
		}
		fl, err := os.Create(out)
		if err != nil {
			return err
		}
		defer fl.Close()
		if err := labelstore.Write(fl, store); err != nil {
			return err
		}
		if err := fl.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "label store written to %s\n", out)
	}
	return nil
}

// printEncode reports the encode's wall time and rate; the encoders fan out
// over GOMAXPROCS goroutines.
func printEncode(stdout io.Writer, elapsed time.Duration, n int) {
	fmt.Fprintf(stdout, "encode: %.3fs (%.0f vertices/s, GOMAXPROCS=%d)\n",
		elapsed.Seconds(), float64(n)/max(elapsed.Seconds(), 1e-9), runtime.GOMAXPROCS(0))
}

// printLayout reports the layout the encoder produced and what its
// permutation block costs in the store: its size and the number of increasing
// runs it names, one per distinct degree at most. The fat/thin and distance encoders
// write degree order, except on graphs of one vertex or none, which have
// nothing to reorder; the baselines have no permutation and stay id-ordered.
func printLayout(stdout io.Writer, order []int32) {
	if order != nil {
		fmt.Fprintf(stdout, "layout: degree-ordered (permutation overhead %d bytes, %d runs)\n",
			len(core.AppendPermutation(nil, order)), core.PermutationRuns(order))
	} else {
		fmt.Fprintln(stdout, "layout: id-ordered (permutation overhead 0 bytes)")
	}
}

// printThinEdges reports what storing each thin-side edge once saved: the
// thin-label entries written against the count the paper's both-ends lists
// would hold, and the max and mean label size of each. The both-ends figures
// are closed form — a thin label of degree d is 1 + w + d·w bits, a fat one is
// what was written.
func printThinEdges(stdout io.Writer, g *graph.Graph, lab *core.Labeling, s *core.FatThinScheme) error {
	tau, err := s.Threshold(g)
	if err != nil {
		return err
	}
	n, st := g.N(), lab.Stats()
	w := bitstr.WidthFor(uint64(n))
	if n == 0 || w == 0 {
		return nil
	}
	var stored, both, bothTotal int64
	bothMax := 0
	for v, bits := range lab.BitLens() {
		if d := g.Degree(v); d < tau {
			stored += int64(bits-1-w) / int64(w)
			both += int64(d)
			bits = 1 + w + d*w
		}
		bothMax = max(bothMax, bits)
		bothTotal += int64(bits)
	}
	fmt.Fprintf(stdout, "thin edges: %d entries stored of %d both-ends; label bits max/mean %d/%.1f stored, %d/%.1f both-ends\n",
		stored, both, st.Max, st.Mean, bothMax, float64(bothTotal)/float64(n))
	return nil
}

// printSizeStats reports the label-size line.
func printSizeStats(stdout io.Writer, st core.SizeStats) {
	fmt.Fprintf(stdout, "labels: max=%d bits, mean=%.1f, p50=%d, p90=%d, p99=%d, total=%d bits (%.1f KiB)\n",
		st.Max, st.Mean, st.P50, st.P90, st.P99, st.Total, float64(st.Total)/8/1024)
}

// verifyDistance spot-checks the engine against BFS ground truth from a
// spread of source vertices (full n² verification is the test suite's job;
// this is the operator-facing smoke check).
func verifyDistance(g *graph.Graph, eng *core.DistEngine) error {
	n := g.N()
	srcStep, dstStep := max(1, n/16), max(1, n/512)
	for src := 0; src < n; src += srcStep {
		d := g.BFS(src)
		for v := 0; v < n; v += dstStep {
			want := d[v]
			if want < 0 || (eng.Kind() == core.DistBounded && want > eng.F()) {
				want = graph.Unreachable
			}
			got, err := eng.Dist(src, v)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("dist(%d,%d) = %d, BFS says %d", src, v, got, want)
			}
		}
	}
	return nil
}

// encode runs a fat/thin scheme's encoder over GOMAXPROCS goroutines, and
// any other scheme's plain, id-ordered Encode.
func encode(scheme core.Scheme, g *graph.Graph) (*core.Labeling, error) {
	if ft, ok := scheme.(*core.FatThinScheme); ok {
		return ft.EncodeParallel(g, 0)
	}
	return scheme.Encode(g)
}

// saveStore persists the labeling's slab verbatim as a single-blob store
// (loaded zero-copy by plquery and plserve); a degree-ordered slab carries its
// rank→label permutation.
func saveStore(path string, n int, lab *core.Labeling) error {
	slab, order, _ := lab.ArenaLayout()
	store, err := labelstore.NewPermutedArenaFile(lab.Scheme(), map[string]string{"n": strconv.Itoa(n)}, slab, lab.BitLens(), order)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := labelstore.Write(f, store); err != nil {
		return err
	}
	return f.Close()
}

// saveShardStores splits a degree-ordered fat/thin labeling into count shard
// store files named path.shard0..count-1: each holds the full labels of its
// owned vertex range plus every fat label, and no bytes for a foreign thin
// label, whose identifier is its rank in the permutation block (one plserve
// -labels per file, fronted by plserve -shards).
func saveShardStores(stdout io.Writer, path string, n int, lab *core.Labeling, count int) error {
	slab, order, _ := lab.ArenaLayout()
	arenas, err := core.ShardLabelArenas(slab, lab.BitLens(), order, count, core.ShardRange)
	if err != nil {
		return err
	}
	params := map[string]string{"n": strconv.Itoa(n)}
	for i, a := range arenas {
		m := core.ShardMap{Count: count, Index: i, Fn: core.ShardRange}
		store, err := labelstore.NewShardArenaFile(lab.Scheme(), params, a.Slab, a.BitLens, order, m)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		shardPath := fmt.Sprintf("%s.shard%d", path, i)
		f, err := os.Create(shardPath)
		if err != nil {
			return err
		}
		if err := labelstore.Write(f, store); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "shard store written to %s (shard %d/%d fn=%s, %d owned vertices, slab %.1f KiB of %.1f)\n",
			shardPath, i, count, m.Fn, a.Owned, float64(len(a.Slab))/1024, float64(len(slab))/1024)
	}
	return nil
}

func pick(name string, alpha, c float64, tau int) (core.Scheme, error) {
	switch name {
	case "powerlaw":
		return core.NewPowerLawScheme(alpha), nil
	case "auto":
		return core.NewPowerLawSchemeAuto(), nil
	case "sparse":
		if c > 0 {
			return core.NewSparseScheme(c), nil
		}
		return core.NewSparseSchemeAuto(), nil
	case "fixed":
		return core.NewFixedThresholdScheme(tau), nil
	case "forest":
		return forest.Scheme{}, nil
	case "onequery":
		return oneQueryAdapter{}, nil
	case "nbrlist":
		return baseline.NeighborList{}, nil
	case "adjmatrix":
		return baseline.AdjMatrix{}, nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
}

// oneQueryAdapter presents the 1-query scheme through the core.Scheme
// interface (the embedded Labeling answers queries via its stored labels).
type oneQueryAdapter struct{}

func (oneQueryAdapter) Name() string { return "onequery" }

func (oneQueryAdapter) Encode(g *graph.Graph) (*core.Labeling, error) {
	enc, err := (onequery.Scheme{Seed: 1}).Encode(g)
	if err != nil {
		return nil, err
	}
	return enc.Labeling, nil
}
