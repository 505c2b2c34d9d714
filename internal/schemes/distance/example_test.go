package distance_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// ExampleScheme demonstrates Lemma 7's contract: distances up to F are
// answered exactly from two labels; anything farther reports Beyond.
func ExampleScheme() {
	g := gen.Path(10) // 0-1-2-...-9
	arena, err := (distance.Scheme{Alpha: 2.5, F: 3}).EncodeArena(g, 0, core.LayoutID)
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
	arena, err := (distance.PLLScheme{}).EncodeArena(g, 0, core.LayoutID)
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
