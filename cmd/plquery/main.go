// Command plquery answers adjacency queries from a label store produced by
// pllabel -o. The graph itself is never loaded — queries are resolved from
// the stored labels alone, which is the whole point of a labeling scheme.
//
// Usage:
//
//	pllabel -scheme auto -in graph.el -o labels.pllb
//	plquery -labels labels.pllb            # interactive: "u v" per line
//	echo "3 17" | plquery -labels labels.pllb
//	plquery -labels labels.pllb -batch < pairs.txt
//	plquery -remote 127.0.0.1:7421 -batch < pairs.txt
//	plquery -dist -labels dists.pllb       # "u v d" lines; d=-1 unreachable
//	plquery -dist -remote 127.0.0.1:7421   # against a distance-serving plserve
//
// Queries are answered by the engine the store builds (labelstore's
// Engines): the zero-allocation core.QueryEngine of a fat/thin store or the
// core.DistEngine of a distance store. plquery answers exactly the stores
// plserve serves and refuses the rest. -batch reads all pairs up front and
// answers them in one batch call. With -remote, queries go to a running
// plserve daemon over the adjserve batch protocol instead of loading any
// labels locally — output is line-for-line identical to the local mode on
// the same store.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/adjserve"
	"repro/internal/labelstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "plquery: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("plquery", flag.ContinueOnError)
	var (
		labelsPath = fs.String("labels", "", "label store file (required unless -remote)")
		remote     = fs.String("remote", "", "plserve address; answer via the network instead of local labels")
		stats      = fs.Bool("stats", false, "print store statistics and exit")
		batch      = fs.Bool("batch", false, "read all pairs, answer as one batch")
		dist       = fs.Bool("dist", false, "answer hop distances (-1 = unreachable/beyond bound); needs a distance store or server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *labelsPath == "" && *remote == "":
		return fmt.Errorf("one of -labels or -remote is required")
	case *labelsPath != "" && *remote != "":
		return fmt.Errorf("-labels and -remote are mutually exclusive")
	case *remote != "" && *stats:
		return fmt.Errorf("-stats needs the label store; use -labels")
	}

	// answer/answerMany resolve adjacency queries, distTo/distToMany hop
	// distances (-dist selects which set is wired); vertex bounds are
	// pre-checked against n, so all of them only see in-range pairs.
	var (
		n          int
		answer     func(u, v int) (bool, error)
		answerMany func(pairs [][2]int, out []bool) ([]bool, error)
		distTo     func(u, v int) (int, error)
		distToMany func(pairs [][2]int, out []int) ([]int, error)
	)
	if *remote != "" {
		client, err := adjserve.Dial(*remote)
		if err != nil {
			return err
		}
		defer client.Close()
		if n, err = client.Info(); err != nil {
			return err
		}
		if *dist {
			distTo = client.Dist
			distToMany = client.DistMany
		} else {
			answer = client.Adjacent
			answerMany = client.AdjacentMany
		}
	} else {
		store, err := labelstore.Open(*labelsPath)
		if err != nil {
			return err
		}
		defer store.Close()
		if n, err = store.IntParam("n"); err != nil {
			return err
		}
		if *stats {
			printStats(stdout, store.File)
			return nil
		}
		// The store's scheme record kind and -dist must agree — misreading
		// one plane's labels as the other's would answer garbage, so both
		// directions fail loudly. Then the store builds its engine, or is
		// refused as plserve refuses it; a shard store's engine answers only
		// the pairs its residents cover, and misrouted pairs are errors.
		if kind := store.SchemeKind(); (kind != labelstore.SchemeAdjacency) != *dist {
			if *dist {
				return fmt.Errorf("-dist needs a distance store; %s holds adjacency labels", *labelsPath)
			}
			return fmt.Errorf("store %s holds %s distance labels; pass -dist", *labelsPath, kind)
		}
		eng, deng, err := store.Engines()
		if err != nil {
			return fmt.Errorf("store %s is not servable: %w", *labelsPath, err)
		}
		if deng != nil {
			distTo, distToMany = deng.Dist, deng.DistMany
		} else {
			answer, answerMany = eng.Adjacent, eng.AdjacentMany
		}
	}
	return serve(stdin, stdout, n, *batch, answer, answerMany, distTo, distToMany)
}

// printStats prints a store's label statistics. On a shard store they cover
// the labels the shard holds — owned and fat — after its shard map: a foreign
// thin label is absent (0 bits) and would drag the mean toward 0.
func printStats(stdout io.Writer, store *labelstore.File) {
	_, bitLens, _, _ := store.ArenaLayout()
	m, sharded := store.Shard()
	held, most, total := 0, 0, int64(0)
	for _, bits := range bitLens {
		if sharded && bits == 0 {
			continue
		}
		held++
		most = max(most, bits)
		total += int64(bits)
	}
	if sharded {
		fmt.Fprintf(stdout, "scheme=%s n=%d shard=%d/%d fn=%s held=%d max=%d bits mean=%.1f bits\n",
			store.Scheme, store.N(), m.Index, m.Count, m.Fn, held, most, float64(total)/float64(max1(held)))
		return
	}
	fmt.Fprintf(stdout, "scheme=%s n=%d max=%d bits mean=%.1f bits\n",
		store.Scheme, store.N(), most, float64(total)/float64(max1(held)))
}

// serve runs the query loop over stdin. Exactly one plane's answer pair is
// non-nil: adjacency prints "u v true|false", distance prints "u v d" with
// d = -1 for unreachable-or-beyond-bound pairs.
func serve(stdin io.Reader, stdout io.Writer, n int, batch bool,
	answer func(u, v int) (bool, error),
	answerMany func(pairs [][2]int, out []bool) ([]bool, error),
	distTo func(u, v int) (int, error),
	distToMany func(pairs [][2]int, out []int) ([]int, error),
) error {
	// Each input line becomes one output line, in order: either a
	// preformatted parse error or the index of a pending query.
	type entry struct {
		text    string // non-empty: emit verbatim
		pairIdx int
	}
	var entries []entry
	var pairs [][2]int
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			entries = append(entries, entry{text: fmt.Sprintf("error: want \"u v\", got %q", line)})
		} else {
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || u < 0 || u >= n || v < 0 || v >= n {
				entries = append(entries, entry{text: fmt.Sprintf("error: invalid vertex pair %q (n=%d)", line, n)})
			} else {
				entries = append(entries, entry{pairIdx: len(pairs)})
				pairs = append(pairs, [2]int{u, v})
			}
		}
		if !batch {
			// Streaming mode: answer and flush line by line.
			e := entries[0]
			entries = entries[:0]
			if e.text != "" {
				fmt.Fprintln(stdout, e.text)
				continue
			}
			p := pairs[0]
			pairs = pairs[:0]
			if distTo != nil {
				d, err := distTo(p[0], p[1])
				if err != nil {
					fmt.Fprintf(stdout, "error: %v\n", err)
					continue
				}
				fmt.Fprintf(stdout, "%d %d %d\n", p[0], p[1], d)
				continue
			}
			adj, err := answer(p[0], p[1])
			if err != nil {
				fmt.Fprintf(stdout, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "%d %d %v\n", p[0], p[1], adj)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !batch {
		return nil
	}
	var emit func(i int) string
	if distTo != nil {
		results, err := distToMany(pairs, make([]int, 0, len(pairs)))
		if err != nil {
			return err
		}
		emit = func(i int) string { return strconv.Itoa(results[i]) }
	} else {
		results, err := answerMany(pairs, make([]bool, 0, len(pairs)))
		if err != nil {
			return err
		}
		emit = func(i int) string { return strconv.FormatBool(results[i]) }
	}
	for _, e := range entries {
		if e.text != "" {
			fmt.Fprintln(stdout, e.text)
			continue
		}
		p := pairs[e.pairIdx]
		fmt.Fprintf(stdout, "%d %d %s\n", p[0], p[1], emit(e.pairIdx))
	}
	return nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
