package distance_test

import (
	"fmt"
	"log"
	"math/bits"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
)

// ExampleScheme demonstrates Lemma 7's contract: distances up to F are
// answered exactly from two labels; anything farther reports Beyond.
func ExampleScheme() {
	g := gen.Path(10) // 0-1-2-...-9
	arena, err := (distance.Scheme{Alpha: 2.5, F: 3}).EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		log.Fatal(err)
	}
	d1, err := eng.Dist(0, 3)
	if err != nil {
		log.Fatal(err)
	}
	d2, err := eng.Dist(0, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d1, d2 == distance.Beyond)
	// Output: 3 true
}

// ExamplePLLScheme shows the exact-distance comparator: pruned landmark
// labels answer every distance.
func ExamplePLLScheme() {
	g := gen.Grid(4, 4)
	arena, err := (distance.PLLScheme{}).EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewDistEngine(arena)
	if err != nil {
		log.Fatal(err)
	}
	d, err := eng.Dist(0, 15) // opposite corners of the 4x4 grid
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d)
	// Output: 6
}

// Example_asRouting labels an Internet AS-level-like topology — the paper
// cites the AS graph as a canonical power-law network, and BA-grown graphs as
// its model — and resolves peering and path-length queries from labels
// alone, as a router would without a global topology table: fat/thin and
// Proposition 5 forest labels for adjacency, Lemma 7 labels for distance.
func Example_asRouting() {
	// Each new AS multihomes to m=2 providers chosen preferentially — the
	// classic model for the AS graph (α = 3).
	const n = 2000
	g, err := gen.BarabasiAlbert(n, 2, 99)
	if err != nil {
		log.Fatal(err)
	}
	diam := g.Diameter()
	fmt.Printf("AS topology: %d ASes, %d peering links, diameter %d (small world)\n", g.N(), g.M(), diam)

	ft, err := core.NewPowerLawScheme(3.0).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	fo, err := (forest.Scheme{}).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjacency labels: fat/thin max=%d bits; forest (Prop 5) max=%d bits — the BA relaxation wins\n",
		ft.Stats().Max, fo.Stats().Max)
	for _, p := range [][2]int{{0, 1}, {0, n - 1}, {17, 1060}, {100, 101}} {
		adj, err := fo.Adjacent(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  peered(AS%d, AS%d) = %v\n", p[0], p[1], adj)
	}

	// Section 7 designs for small distances: most AS pairs are within a few
	// hops (power-law graphs have Θ(log n) diameter), so a small bound f
	// already answers the bulk of queries while keeping the fat distance
	// table — the dominant label term — short.
	const f = 4
	arena, err := (distance.Scheme{Alpha: 3.0, F: f}).EncodeArena(g, 0, core.LayoutDegree)
	if err != nil {
		log.Fatal(err)
	}
	dl, err := core.NewDistEngine(arena)
	if err != nil {
		log.Fatal(err)
	}
	sizes := core.SizeStatsOf(arena.BitLens)
	exactBits := n * bits.Len(uint(diam+1)) // the trivial exact-vector label, for scale
	fmt.Printf("distance labels (f=%d): max=%d bits, mean=%.0f bits (exact distance vectors would be %d bits)\n",
		f, sizes.Max, sizes.Mean, exactBits)

	answered, beyond := 0, 0
	for _, p := range [][2]int{{0, n - 1}, {1, 2}, {17, 1060}, {123, 1913}, {999, 1250}} {
		d, err := dl.Dist(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		if d == distance.Beyond {
			beyond++
			fmt.Printf("  hops(AS%d, AS%d) > %d\n", p[0], p[1], f)
			continue
		}
		answered++
		if truth := g.Dist(p[0], p[1]); d != truth {
			log.Fatalf("hops(AS%d, AS%d) = %d but BFS says %d", p[0], p[1], d, truth)
		}
		fmt.Printf("  hops(AS%d, AS%d) = %d [ok]\n", p[0], p[1], d)
	}
	fmt.Printf("answered %d/%d queries exactly; %d reported as >%d hops (the scheme's contract)\n",
		answered, answered+beyond, beyond, f)

	// Spot-verify the distance labels on a slice of sources.
	for u := 0; u < n; u += n / 16 {
		truth := g.BFS(u)
		for _, v := range []int{0, n / 2, n - 1} {
			d, err := dl.Dist(u, v)
			if err != nil {
				log.Fatal(err)
			}
			want := truth[v]
			if want == graph.Unreachable || want > f {
				want = distance.Beyond
			}
			if d != want {
				log.Fatalf("dist(%d,%d) = %d, want %d", u, v, d, want)
			}
		}
	}
	fmt.Println("distance label spot-check: ok")
	// Output:
	// AS topology: 2000 ASes, 3997 peering links, diameter 8 (small world)
	// adjacency labels: fat/thin max=67 bits; forest (Prop 5) max=33 bits — the BA relaxation wins
	//   peered(AS0, AS1) = true
	//   peered(AS0, AS1999) = false
	//   peered(AS17, AS1060) = false
	//   peered(AS100, AS101) = false
	// distance labels (f=4): max=1873 bits, mean=1810 bits (exact distance vectors would be 8000 bits)
	//   hops(AS0, AS1999) = 2 [ok]
	//   hops(AS1, AS2) = 1 [ok]
	//   hops(AS17, AS1060) = 4 [ok]
	//   hops(AS123, AS1913) > 4
	//   hops(AS999, AS1250) > 4
	// answered 3/5 queries exactly; 2 reported as >4 hops (the scheme's contract)
	// distance label spot-check: ok
}
