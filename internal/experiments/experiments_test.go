package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 20160711} }

// TestAllExperimentsRun executes every experiment at quick scale and checks
// the resulting tables have rows and render cleanly.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := r.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", r.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", r.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Cols) {
						t.Errorf("%s: row has %d cells, header has %d", r.ID, len(row), len(tb.Cols))
					}
				}
				var buf bytes.Buffer
				if err := tb.Render(&buf); err != nil {
					t.Errorf("%s: render: %v", r.ID, err)
				}
				if !strings.Contains(buf.String(), tb.ID) {
					t.Errorf("%s: rendered output missing ID header", r.ID)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 not found")
	}
	if _, ok := ByID("e4"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All length mismatch")
	}
}

// TestE8EngineRows: E8 ends with the three engine rows — single queries, one
// batch, and the batch fanned out over GOMAXPROCS goroutines — at every
// GOMAXPROCS, the fan-out over more goroutines than one included.
func TestE8EngineRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		tables, err := E8DecodeThroughput(quickCfg())
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		rows := tables[0].Rows
		var got []string
		for _, row := range rows[len(rows)-3:] {
			got = append(got, row[0])
		}
		want := []string{"engine(single)", "engine(batch)", fmt.Sprintf("engine(par=%d)", procs)}
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: last rows %q, want %q", procs, got, want)
		}
	}
}

// TestE2PredictionQuality pins the paper's experimental claim: the fitted
// threshold prediction lands within 25% of the empirically optimal maximum
// label size.
func TestE2PredictionQuality(t *testing.T) {
	tables, err := E2ThresholdSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := indexOf(t, tb.Cols, "auto.ratio")
	for _, row := range tb.Rows {
		var ratio float64
		if _, err := fmtSscan(row[col], &ratio); err != nil {
			t.Fatalf("parse %q: %v", row[col], err)
		}
		if ratio > 1.25 {
			t.Errorf("auto threshold ratio %.2f exceeds 1.25 (row %v)", ratio, row)
		}
	}
}

// TestE4ConstructionCertified pins that every E4 row certifies P_l and P_h
// membership of the constructed graph.
func TestE4ConstructionCertified(t *testing.T) {
	tables, err := E4LowerBound(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	plCol := indexOf(t, tb.Cols, "P_l?")
	phCol := indexOf(t, tb.Cols, "P_h?")
	for _, row := range tb.Rows {
		if row[plCol] != "true" || row[phCol] != "true" {
			t.Errorf("membership not certified in row %v", row)
		}
	}
}

// TestE6ForestAlwaysWins pins the Prop 5 shape: on BA graphs the forest
// scheme beats fat/thin for every (n, m) in the sweep.
func TestE6ForestAlwaysWins(t *testing.T) {
	tables, err := E6BAForest(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	winCol := indexOf(t, tb.Cols, "win")
	for _, row := range tb.Rows {
		if row[winCol] != "forest" {
			t.Errorf("fat/thin beat forest in row %v", row)
		}
	}
}

func indexOf(t *testing.T, cols []string, name string) int {
	t.Helper()
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	t.Fatalf("column %q not found in %v", name, cols)
	return -1
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestRenderCSV(t *testing.T) {
	tb := &Table{ID: "EX", Title: "t", Cols: []string{"a", "b"}, Notes: []string{"n1"}}
	tb.AddRow("1", `va"l,ue`)
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a,b\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, `1,"va""l,ue"`) {
		t.Errorf("quoting wrong: %q", out)
	}
	if !strings.Contains(out, "# note: n1") {
		t.Errorf("missing note: %q", out)
	}
}

// TestE13UniversalSizeIsKNR pins |U| = 2^(label bits) for every row.
func TestE13UniversalSizeIsKNR(t *testing.T) {
	tables, err := E13UniversalGraphs(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	bitsCol := indexOf(t, tb.Cols, "label.bits")
	uCol := indexOf(t, tb.Cols, "|U| vertices")
	for _, row := range tb.Rows {
		var bits, u int
		if _, err := fmt.Sscan(row[bitsCol], &bits); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(row[uCol], &u); err != nil {
			t.Fatal(err)
		}
		if u != 1<<uint(bits) {
			t.Errorf("|U| = %d, want 2^%d", u, bits)
		}
	}
}

// TestE14ExpectationBelowBound pins E[max] <= the deterministic bound.
func TestE14ExpectationBelowBound(t *testing.T) {
	tables, err := E14ExpectedLabelSize(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := indexOf(t, tb.Cols, "E[max]/bound")
	for _, row := range tb.Rows {
		var ratio float64
		if _, err := fmt.Sscan(row[col], &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio > 1.0 {
			t.Errorf("E[max]/bound = %.2f > 1 in row %v", ratio, row)
		}
	}
}

// TestE17StretchMonotoneInTrees pins that adding core trees never increases
// mean stretch (within one n block).
func TestE17StretchMonotoneInTrees(t *testing.T) {
	tables, err := E17RoutingStretch(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	nCol := indexOf(t, tb.Cols, "n")
	sCol := indexOf(t, tb.Cols, "mean.stretch")
	prevN, prevS := "", -1.0
	for _, row := range tb.Rows {
		var s float64
		if _, err := fmt.Sscan(row[sCol], &s); err != nil {
			t.Fatal(err)
		}
		if row[nCol] == prevN && s > prevS+0.05 {
			t.Errorf("stretch rose from %.2f to %.2f within n=%s", prevS, s, row[nCol])
		}
		prevN, prevS = row[nCol], s
	}
}

// TestE21LabelsInvariantToH pins that the achieved max label varies by at
// most a few bits across the embedded-H sweep at each n.
func TestE21LabelsInvariantToH(t *testing.T) {
	tables, err := E21AdversarialH(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	nCol := indexOf(t, tb.Cols, "n")
	maxCol := indexOf(t, tb.Cols, "pl.max")
	plCol := indexOf(t, tb.Cols, "P_l?")
	byN := map[string][]int{}
	for _, row := range tb.Rows {
		if row[plCol] != "true" {
			t.Fatalf("construction left P_l in row %v", row)
		}
		var m int
		if _, err := fmt.Sscan(row[maxCol], &m); err != nil {
			t.Fatal(err)
		}
		byN[row[nCol]] = append(byN[row[nCol]], m)
	}
	for n, ms := range byN {
		lo, hi := ms[0], ms[0]
		for _, m := range ms {
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		if hi-lo > hi/10 {
			t.Errorf("n=%s: max labels vary %d..%d across H (>10%%)", n, lo, hi)
		}
	}
}
