package adjserve

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchSetup shares one engine + server across all serving benchmarks.
var benchSetup struct {
	once sync.Once
	addr string
	eng  interface {
		AdjacentMany(pairs [][2]int, out []bool) ([]bool, error)
		N() int
	}
}

func benchServer(b *testing.B) (string, int) {
	benchSetup.once.Do(func() {
		eng := testEngine(b, 20000, 42)
		// No Cleanup here: the server must outlive the sub-benchmark that
		// happened to initialize it, so it runs for the whole process.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go NewServer(eng, 0).Serve(ln)
		benchSetup.addr, benchSetup.eng = ln.Addr().String(), eng
	})
	return benchSetup.addr, benchSetup.eng.N()
}

// BenchmarkAdjserveBatch measures remote queries/sec per batch size over one
// connection; b.N counts queries, not frames.
func BenchmarkAdjserveBatch(b *testing.B) {
	for _, batch := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			addr, n := benchServer(b)
			c, err := Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			pairs := randomPairs(n, batch, int64(batch))
			out := make([]bool, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				var err error
				out, err = c.AdjacentMany(pairs, out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdjserveParallelConns measures aggregate throughput with one
// pipelined connection per GOMAXPROCS worker at a fixed batch size.
func BenchmarkAdjserveParallelConns(b *testing.B) {
	const batch = 1024
	addr, n := benchServer(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.SetParallelism(1)
	b.RunParallel(func(pb *testing.PB) {
		c, err := Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		pairs := randomPairs(n, batch, int64(workers))
		out := make([]bool, 0, batch)
		for pb.Next() {
			var err error
			out, err = c.AdjacentMany(pairs, out[:0])
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRouterBatch measures routed queries/sec through a 3-shard fleet
// over one downstream connection and — the x2conns rows — over two, which the
// router carries on two upstream lanes; b.N counts queries, not frames. The
// 4096 point must report 0 allocs/op (CI asserts it).
func BenchmarkRouterBatch(b *testing.B) {
	_, engines := shardEngines(b, 20000, 3, 42)
	addrs := make([]string, len(engines))
	for i, e := range engines {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go NewServer(e, 0).Serve(ln)
		addrs[i] = ln.Addr().String()
	}
	r, err := NewRouter(addrs, 0)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go r.Serve(ln)
	defer r.Close()
	for _, row := range []struct {
		name         string
		batch, conns int
	}{{"batch64", 64, 1}, {"batch4096", 4096, 1}, {"batch64x2conns", 64, 2}, {"batch4096x2conns", 4096, 2}} {
		b.Run(row.name, func(b *testing.B) {
			pairs := randomPairs(r.N(), row.batch, int64(row.batch))
			clients := make([]*Client, row.conns)
			outs := make([][]bool, row.conns)
			for i := range clients {
				c, err := Dial(ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[i], outs[i] = c, make([]bool, 0, row.batch)
				// One frame per slot of the router connection: each slot
				// grows its own scatter buffers on first use.
				for warm := 0; warm < pipelineDepth; warm++ {
					if _, err := c.AdjacentMany(pairs, outs[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for done := 0; done < b.N/row.conns; done += row.batch {
						if _, err := c.AdjacentMany(pairs, outs[i]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkServeTraceDisabled measures the serve path with a trace sink
// installed but sampling and slowlog off — the production default. The trace
// plane's contract is that this path costs nothing: CI asserts 0 allocs/op,
// and ns/op must stay within noise of the pre-trace serve path.
func BenchmarkServeTraceDisabled(b *testing.B) {
	srv := NewServer(testEngine(b, 20000, 42), 0)
	srv.SetTraceSink(&obs.TraceSink{Ring: obs.NewTraceRing(256), Slow: obs.NewTraceRing(64)})
	req := appendPairsReq(nil, opQuery, randomPairs(20000, 64, 1))
	bufs := &connBuffers{resp: make([]byte, 0, 4096)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp := srv.serveFrame(req, bufs, start, 1, 1)
		bufs.resp = resp[:0]
	}
}

// BenchmarkAdjserveShed measures the refusal path: answering a 64-pair query
// frame with a shed frame while the latch is tripped. Shedding exists to be
// far cheaper than serving, so this must report 0 allocs/op (CI asserts it)
// and a tiny ns/op.
func BenchmarkAdjserveShed(b *testing.B) {
	srv := NewServer(testEngine(b, 20000, 42), 0)
	srv.SetShedDepth(1)
	srv.metrics.QueuedFrames.Add(5) // pinned past the bound: every frame sheds
	req := appendPairsReq(nil, opQuery, randomPairs(20000, 64, 1))
	bufs := &connBuffers{resp: make([]byte, 0, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := srv.process(req, bufs)
		bufs.resp = resp[:0]
	}
}
