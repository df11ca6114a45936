package experiments

import (
	"mlvlsi/internal/core"
	"mlvlsi/internal/formulas"
)

// E19WireDistribution examines the whole wire-length distribution, not just
// the maximum: §2.2's claim (3) is about the longest wire, but the layouts
// shorten every quantile by ≈ L/2, which is what actually buys clock
// frequency and energy.
func E19WireDistribution() *Table {
	t := &Table{
		ID:    "E19 (§2.2, distribution)",
		Title: "wire-length quantiles vs layers (hypercube n=9)",
		Header: []string{"L", "p50", "p90", "p99", "max", "mean",
			"paper-maxwire", "max-gain-vs-L2"},
	}
	var base int
	for _, l := range []int{2, 3, 4, 8} {
		lay, err := core.Hypercube(9, l, 0, 0)
		if err != nil {
			t.Fail("build failed L=%d: %v", l, err)
			continue
		}
		d := lay.WireDistribution()
		if l == 2 {
			base = d.Max
		}
		t.Add(l, d.P50, d.P90, d.P99, d.Max, d.Mean,
			formulas.HypercubeMaxWire(512, l),
			ratio(float64(base), float64(d.Max)))
	}
	t.Note("every quantile shrinks with L — the multilayer gain is distribution-wide, not a")
	t.Note("tail effect; short wires (stubs, ports) floor the p50 at O(node side + channel).")
	return t
}
