package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the contract at the repo root; the A/A check reads the
// declared end-to-end metrics, directions and bounds from it, so it judges a
// run by exactly what the driver will.
const benchmarkFile = "BENCHMARK.json"

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

// exactMetrics depend on the seed alone: two runs with one seed must print
// the same value to the last digit.
var exactMetrics = map[string]bool{"label_bits_max": true, "store_bytes": true}

// runAA is the same-code check: for each workload, two sets of n end-to-end
// runs of this very binary, interleaved A1 B1 A2 B2 … so that host drift
// lands on both sets alike, run i of either set seeded seed+i. Per metric it
// prints both medians, both inter-quartile ranges as a share of the median
// (the driver's spread), and how much worse B's median is than A's, against
// the declared bound. Each run is its own process: a fresh heap, as the
// driver runs it.
func runAA(n int, only string, seed int64, seconds int, smoke bool, out io.Writer) (ok bool, err error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return false, fmt.Errorf("the A/A check runs from the repo root: %w", err)
	}
	var decl contract
	if err := json.Unmarshal(data, &decl); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok = true
	for _, wl := range decl.Workloads {
		if only != "" && only != wl.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			var pair [2]result
			for s := range sets {
				args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(seed+int64(i), 10), "-seconds", strconv.Itoa(seconds)}
				if smoke {
					args = append(args, "-smoke")
				}
				if pair[s], err = runChild(self, args); err != nil {
					return false, fmt.Errorf("%s run %c%d: %w", wl.Name, 'A'+s, i+1, err)
				}
				if pair[s].Failed != 0 {
					fmt.Fprintf(out, "%s run %c%d: %d of %d frames failed  VIOLATION\n", wl.Name, 'A'+s, i+1, pair[s].Failed, pair[s].Attempted)
					ok = false
				}
				for name, m := range pair[s].Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
			for name := range exactMetrics {
				if a, b := pair[0].Metrics[name].Value, pair[1].Metrics[name].Value; a != b {
					fmt.Fprintf(out, "%s seed %d: %s is %v in A and %v in B, must repeat exactly  VIOLATION\n", wl.Name, seed+int64(i), name, a, b)
					ok = false
				}
			}
		}
		fmt.Fprintf(out, "%s (%d + %d runs)\n  %-16s %14s %8s %14s %8s %9s %7s\n", wl.Name, n, n,
			"metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
		for _, m := range decl.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != n || len(b) != n || m.Bound == nil {
				return false, fmt.Errorf("%s: metric %s has no bound or is missing from a run's result", wl.Name, m.Name)
			}
			medA, medB := median(a), median(b)
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			spread, bound := max(iqrFrac(a), iqrFrac(b)), *m.Bound
			verdict := "ok"
			switch {
			case worse > bound || (m.Name != "setup_s" && spread > bound):
				verdict, ok = "VIOLATION", false
			case worse > bound/2 || spread > bound/2:
				verdict = "tight (over half the bound)"
			}
			fmt.Fprintf(out, "  %-16s %14.6g %7.2f%% %14.6g %7.2f%% %+8.2f%% %6.1f%%  %s\n",
				m.Name, medA, 100*iqrFrac(a), medB, 100*iqrFrac(b), 100*worse, 100*bound, verdict)
		}
	}
	return ok, nil
}

// runChild runs one benchmark process and parses its last line. A run that
// found failures exits 1 but still prints its result, which is returned.
func runChild(self string, args []string) (result, error) {
	var res result
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("no result on the last line: %w", jerr)
	}
	return res, nil
}
