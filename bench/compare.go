package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// comparison is one workload × metric row of -compare.
type comparison struct {
	workload, metric, unit string
	a, b                   [3]float64 // q1, median, q3
	n                      [2]int
	winShare               float64 // share of index-aligned pairs B wins; ties count for neither
	bound                  float64 // negative for per-layer metrics, which have none
	verdict                string
}

// compareMetric judges side B against baseline A by the rules the
// benchmark's bounds are defined under: a spread (interquartile range over
// median, either side) wider than the bound is "unresolved" unless every B
// run beats every A run; a median worse by more than the bound is
// "regressed"; a gain is "improved" only when B wins at least nine tenths of
// the pairs and the medians differ by more than A's interquartile range.
func compareMetric(d metricDef, a, b []float64) comparison {
	c := comparison{metric: d.name, unit: d.unit, bound: d.bound, n: [2]int{len(a), len(b)}}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(d, b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		c.winShare = float64(wins) / float64(pairs)
	}
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	if c.bound < 0 {
		c.verdict = "n/a"
		return c
	}
	spread := math.Max(relSpread(c.a), relSpread(c.b))
	worse := relChange(c.a[1], c.b[1])
	if d.better == "higher" {
		worse = -worse
	}
	allBetter := len(a) > 0 && len(b) > 0 && better(d, b[len(b)-1], a[0]) && better(d, b[0], a[len(a)-1])
	gain := -worse * math.Abs(c.a[1])
	switch {
	case spread > c.bound && allBetter:
		c.verdict = "improved"
	case spread > c.bound:
		c.verdict = "unresolved"
	case worse > c.bound:
		c.verdict = "regressed"
	case c.winShare >= 0.9 && gain > c.a[2]-c.a[0]:
		c.verdict = "improved"
	default:
		c.verdict = "ok"
	}
	return c
}

// better reports whether x reads better than y under d's direction.
func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

// relSpread is the interquartile range over the median (0 when both are 0).
func relSpread(q [3]float64) float64 {
	if q[2] == q[0] {
		return 0
	}
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// relChange is (b − a)/|a|, with a zero baseline treated as no change when
// b is zero too and as an unbounded change otherwise.
func relChange(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}

// runCompare prints one row per workload × metric for two sets of -out
// files: end-to-end metrics from the untraced records, per-layer metrics
// from the traced ones. Files are paired by sorted name for the win share,
// so run the two sides alternately and name the files in run order.
func runCompare(w io.Writer, globA, globB string) error {
	var sets [2][]*record
	for i, g := range []string{globA, globB} {
		paths, err := filepath.Glob(g)
		if err != nil {
			return err
		}
		if len(paths) == 0 {
			return fmt.Errorf("no files match %q", g)
		}
		sort.Strings(paths)
		if sets[i], err = readRecords(paths); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB wins\tbound\tverdict")
	regressed := 0
	for _, wl := range workloads {
		for _, group := range []struct {
			defs   []metricDef
			traced bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, d := range group.defs {
				a := values(sets[0], wl.name, d.name, group.traced)
				b := values(sets[1], wl.name, d.name, group.traced)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				if group.traced {
					d.bound = -1 // per-layer metrics carry no regression bound
				}
				c := compareMetric(d, a, b)
				if c.verdict == "regressed" {
					regressed++
				}
				bound := "—"
				if c.bound >= 0 {
					bound = fmt.Sprintf("%.0f%%", 100*c.bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%.0f%%\t%s\t%s\n",
					wl.name, c.metric, c.unit, c.a[1], c.a[0], c.a[2], c.n[0], c.b[1], c.b[0], c.b[2], c.n[1],
					100*c.winShare, bound, c.verdict)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d regressed\n", regressed)
	return nil
}

// values collects one metric of one workload across records, in record
// order: end-to-end metrics from untraced records, per-layer metrics from
// traced ones.
func values(recs []*record, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		m := r.Metrics
		if traced {
			m = r.Layers
		}
		if v, ok := m[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
