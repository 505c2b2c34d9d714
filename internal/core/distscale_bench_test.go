package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/schemes/distance"
)

// BenchmarkDistManyScale is the in-process PLL kernel at three sizes: a
// degree-ordered PLL engine over a Chung–Lu graph (α = 2.5, w_min = 2,
// seed 1) answering 4096 uniform pairs per DistMany. Besides ns/pair it
// reports the engine's hub-table heap and the wall time of one encode
// (EncodeArena on GOMAXPROCS workers) and one engine build, so one run
// gives EXPERIMENTS' in-process table row by row:
//
//	go test -run '^$' -bench 'DistManyScale/n=2\^1[46]$' -count 5 ./internal/core
//
// n = 2^18 encodes in about 11 s on two cores (2 vCPU Xeon; the
// landmark-by-landmark sweep it replaced took about 57 s) and peaks near
// 750 MB resident; select it explicitly.
func BenchmarkDistManyScale(b *testing.B) {
	for _, lg := range []int{14, 16, 18} {
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			g, err := gen.ChungLuPowerLawParallel(1<<lg, 2.5, 2, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			arena, err := distance.PLLScheme{}.EncodeArena(g, 0, core.LayoutDegree)
			if err != nil {
				b.Fatal(err)
			}
			encode := time.Since(start)
			start = time.Now()
			eng, err := core.NewDistEngine(arena)
			if err != nil {
				b.Fatal(err)
			}
			build := time.Since(start)
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2]int, 4096)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
			}
			out := make([]int, 0, len(pairs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.DistMany(pairs, out[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
			b.ReportMetric(float64(eng.HubTableBytes()), "hub_table_bytes")
			b.ReportMetric(float64(len(arena.Slab)), "slab_bytes")
			b.ReportMetric(float64(encode.Microseconds())/1e3, "encode_ms")
			b.ReportMetric(float64(build.Microseconds())/1e3, "build_ms")
		})
	}
}
