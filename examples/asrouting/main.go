// Asrouting: an Internet AS-level-like topology (the paper cites the AS
// graph as a canonical power-law network, and BA-grown graphs as its model).
// The example labels the topology three ways — fat/thin adjacency labels,
// Proposition 5 forest labels that exploit the BA structure, and Lemma 7
// bounded-distance labels — and resolves peering and path-length queries
// from labels alone, as a router would without a global topology table.
//
//	go run ./examples/asrouting
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/schemes/distance"
	"repro/internal/schemes/forest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asrouting: ")

	// BA-grown AS topology: each new AS multihomes to m=2 providers chosen
	// preferentially — the classic model for the AS graph (α = 3).
	const n = 8000
	g, err := gen.BarabasiAlbert(n, 2, 99)
	if err != nil {
		log.Fatal(err)
	}
	diam := g.Diameter()
	fmt.Printf("AS topology: %d ASes, %d peering links, diameter %d (small world)\n", g.N(), g.M(), diam)

	// --- Peering queries from adjacency labels ---
	ft, err := core.NewPowerLawScheme(3.0).Encode(g) // BA graphs have α = 3
	if err != nil {
		log.Fatal(err)
	}
	fo, err := (forest.Scheme{}).Encode(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjacency labels: fat/thin max=%d bits; forest (Prop 5) max=%d bits — the BA relaxation wins\n",
		ft.Stats().Max, fo.Stats().Max)

	pairs := [][2]int{{0, 1}, {0, n - 1}, {17, 4242}, {100, 101}}
	for _, p := range pairs {
		adj, err := fo.Adjacent(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  peered(AS%d, AS%d) = %v\n", p[0], p[1], adj)
	}

	// --- Path-length queries from distance labels (Lemma 7) ---
	// Section 7 designs for small distances: most AS pairs are within a few
	// hops (Chung–Lu: power-law graphs have Θ(log n) diameter), so a small
	// bound f already answers the bulk of queries while keeping the fat
	// distance table — the dominant label term — short.
	const f = 4
	arena, err := (distance.Scheme{Alpha: 3.0, F: f}).EncodeArena(g, 0, core.LayoutID)
	if err != nil {
		log.Fatal(err)
	}
	dl, err := core.NewDistEngine(arena)
	if err != nil {
		log.Fatal(err)
	}
	sizes := core.SizeStatsOf(arena.BitLens)
	exactBits := n * bitsFor(diam+2) // the trivial exact-vector label, for scale
	fmt.Printf("distance labels (f=%d): max=%d bits, mean=%.0f bits (exact distance vectors would be %d bits)\n",
		f, sizes.Max, sizes.Mean, exactBits)

	answered, beyond := 0, 0
	for _, p := range [][2]int{{0, n - 1}, {1, 2}, {17, 4242}, {123, 7654}, {999, 5000}} {
		d, err := dl.Dist(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		truth := g.Dist(p[0], p[1])
		if d == distance.Beyond {
			beyond++
			fmt.Printf("  hops(AS%d, AS%d) > %d\n", p[0], p[1], f)
			continue
		}
		answered++
		if d != truth {
			log.Fatalf("hops(AS%d, AS%d) = %d but BFS says %d", p[0], p[1], d, truth)
		}
		fmt.Printf("  hops(AS%d, AS%d) = %d [ok]\n", p[0], p[1], d)
	}
	fmt.Printf("answered %d/%d queries exactly; %d reported as >%d hops (the scheme's contract)\n",
		answered, answered+beyond, beyond, f)

	// Sanity: spot-verify distance labels on a slice of sources.
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
}

// bitsFor returns ceil(log2 v) for v >= 1.
func bitsFor(v int) int {
	b := 0
	for 1<<b < v {
		b++
	}
	return b
}
