// Package experiments regenerates every quantitative result in the paper:
// the track counts behind Figures 2-4, the closed-form area / volume /
// wire-length results of §3-§5 for each network family, the §2.2 baseline
// comparisons (direct multilayer design vs folding vs stacked collinear),
// the optimality ratios against bisection lower bounds, and the wire-delay
// performance claim. Each experiment returns a Table pairing the paper's
// predicted leading term with the measured value from a realized (and,
// at moderate sizes, machine-verified) layout.
//
// The paper's formulas are leading terms as N → ∞ with negligible node
// sizes; at laptop sizes the measured full areas carry the node-square and
// rounding terms the paper writes as o(·). Tables therefore report both the
// full measured area and the wiring-only (channel) area, whose leading
// constant is the quantity the paper derives.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Failures lists the steps that did not complete: a build that errored
	// or a layout that failed verification, each missing its row. A table
	// with failures is not a result, and paperbench exits non-zero on one.
	Failures []string
}

// Add appends a row of cells, formatting each with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtF(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends an annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fail records a failed step, printed under the table after the notes.
func (t *Table) Fail(format string, args ...any) {
	t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
}

func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// CSV renders the table as RFC-4180-ish CSV (header row first; notes and
// failures are omitted). Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		return c
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, f := range t.Failures {
		fmt.Fprintf(&b, "failure: %s\n", f)
	}
	return b.String()
}

// ratio formats measured/predicted, guarding zero.
func ratio(measured float64, predicted float64) string {
	if predicted == 0 {
		return "-"
	}
	return fmtF(measured / predicted)
}

// All runs every experiment in paper order.
func All() []*Table {
	return []*Table{
		E1CollinearKAry(),
		E2CollinearComplete(),
		E3CollinearHypercube(),
		E4KAryNCube(),
		E5GeneralizedHypercube(),
		E6Butterfly(),
		E7SwapNetworks(),
		E8Hypercube(),
		E9CCC(),
		E10FoldedEnhanced(),
		E11PNCluster(),
		E12Baselines(),
		E13LowerBounds(),
		E14WireDelay(),
		E15Cayley(),
		E16Stack3D(),
		E17Compaction(),
		E18GenericVsSpecialized(),
		E19WireDistribution(),
	}
}
