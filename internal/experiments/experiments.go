// Package experiments implements the evaluation harness: every table and
// figure of the paper's experimental study (full version, arXiv:1502.03971)
// plus bound-check experiments for each theorem, regenerated on synthetic
// workloads whose degree tails are verified members of P_h. cmd/plbench
// runs and renders them; see EXPERIMENTS.md for paper-vs-measured
// discussion.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Config controls experiment scale.
type Config struct {
	// Quick reduces graph sizes so the full suite runs in seconds; the full
	// sizes reproduce the paper-scale sweeps.
	Quick bool
	// Seed drives every generator; experiments are bit-reproducible.
	Seed int64
}

// Table is a rendered experiment result.
type Table struct {
	ID    string
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// RenderCSV writes the table as RFC-4180-ish CSV (one header row; the title
// and notes become `#`-prefixed comment lines). This is the machine-readable
// path for regenerating the evaluation's figures with external plotters.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Cols); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - utf8.RuneCountInString(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Cols)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner is one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Config) ([]*Table, error)
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Description: "label size vs n: power-law scheme vs sparse scheme vs baselines (Thm 3/4)", Run: E1LabelSizeVsN},
		{ID: "E2", Description: "predicted threshold vs empirically optimal threshold (full-version experiment)", Run: E2ThresholdSweep},
		{ID: "E3", Description: "label size vs alpha at fixed n (Thm 4's n^(1/alpha) dependence)", Run: E3AlphaSweep},
		{ID: "E4", Description: "lower-bound construction: embed arbitrary H into P_l (Thm 6)", Run: E4LowerBound},
		{ID: "E5", Description: "f(n)-distance labels vs exact distance vectors (Lemma 7)", Run: E5DistanceLabels},
		{ID: "E6", Description: "BA graphs: forest-decomposition labels vs fat/thin (Prop 5)", Run: E6BAForest},
		{ID: "E7", Description: "1-query labels vs 2-label scheme (Section 6 relaxation)", Run: E7OneQuery},
		{ID: "E8", Description: "encode time and decode throughput per scheme", Run: E8DecodeThroughput},
		{ID: "E9", Description: "ablation: threshold choice (sparse vs power-law vs degeneracy)", Run: E9ThresholdAblation},
		{ID: "E10", Description: "ablation: fat bitmap vs fat neighbor-list encoding", Run: E10FatEncoding},
		{ID: "E11", Description: "dynamic extension: amortized relabels per update (Section 8.1)", Run: E11DynamicRelabels},
		{ID: "E12", Description: "incomplete knowledge + lognormal misspecification (Section 8.1)", Run: E12IncompleteKnowledge},
		{ID: "E13", Description: "induced-universal graphs from labeling schemes (KNR, Section 5)", Run: E13UniversalGraphs},
		{ID: "E14", Description: "expected worst-case label size on random power-law graphs (Thm 5)", Run: E14ExpectedLabelSize},
		{ID: "E15", Description: "ablation: thin-label encoding, fixed-width vs adaptive δ-gaps", Run: E15CompressedThin},
		{ID: "E16", Description: "peer-to-peer communication cost per query across schemes", Run: E16CommunicationCost},
		{ID: "E17", Description: "core-tree routing labels: size and additive stretch (Brady–Cowen)", Run: E17RoutingStretch},
		{ID: "E18", Description: "price of locality: global compression vs per-vertex labels", Run: E18PriceOfLocality},
		{ID: "E19", Description: "generative models (§6): which admit small labels, by degeneracy", Run: E19GenerativeModels},
		{ID: "E20", Description: "encoder scalability: sequential vs parallel, ns/vertex", Run: E20EncodeScalability},
		{ID: "E21", Description: "lower-bound construction: labels are invariant to the embedded H", Run: E21AdversarialH},
		{ID: "E25", Description: "fat-label bitmap-vs-list ablation under Zipf/degree-proportional query skew", Run: E25SkewFatAblation},
		{ID: "E33", Description: "thin-side edges stored once vs both ends: label bits and store bytes vs n, α, Thm 4/6; adversarial embedding; τ sweep", Run: E33ThinEdgesOnce},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment IDs sorted.
func IDs() []string {
	rs := All()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// fmtBits renders a bit count compactly.
func fmtBits(bits int) string {
	return fmt.Sprintf("%d", bits)
}

// fmtF renders a float with 1 decimal.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtF2 renders a float with 2 decimals.
func fmtF2(v float64) string { return fmt.Sprintf("%.2f", v) }
