package experiments

import (
	"mlvlsi/internal/bounds"
	"mlvlsi/internal/cluster"
	"mlvlsi/internal/core"
	"mlvlsi/internal/extra"
	"mlvlsi/internal/fold"
	"mlvlsi/internal/formulas"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/sim"
	"mlvlsi/internal/track"
)

// E10FoldedEnhanced regenerates §5.3: folded hypercube area 49N²/(9L²) and
// enhanced cube area 100N²/(9L²).
func E10FoldedEnhanced() *Table {
	t := &Table{
		ID:    "E10 (§5.3)",
		Title: "folded hypercube vs 49N²/(9L²); enhanced cube vs 100N²/(9L²)",
		Header: []string{"network", "n", "N", "L", "area", "paper-area", "ratio",
			"vs-plain-cube", "paper-factor"},
	}
	for _, n := range []int{6, 8, 10} {
		for _, l := range []int{2, 4, 8} {
			plain, err := core.Hypercube(n, l, 0, 0)
			if err != nil {
				t.Fail("plain build failed: %v", err)
				continue
			}
			pa := plain.Stats().Area
			if lay, err := extra.FoldedHypercube(n, l, 0, 0); err == nil {
				st := checkedStats(t, lay)
				paper := formulas.FoldedHypercubeArea(st.N, l)
				t.Add("folded", n, st.N, l, st.Area, paper, ratio(float64(st.Area), paper),
					ratio(float64(st.Area), float64(pa)), (7.0*7)/(4*4))
			} else {
				t.Fail("folded build failed n=%d L=%d: %v", n, l, err)
			}
			if lay, err := extra.EnhancedCube(n, 12345, l, 0, 0); err == nil {
				st := checkedStats(t, lay)
				paper := formulas.EnhancedCubeArea(st.N, l)
				t.Add("enhanced", n, st.N, l, st.Area, paper, ratio(float64(st.Area), paper),
					ratio(float64(st.Area), float64(pa)), (10.0*10)/(4*4))
			} else {
				t.Fail("enhanced build failed n=%d L=%d: %v", n, l, err)
			}
		}
	}
	t.Note("vs-plain-cube compares against the measured plain hypercube; the paper's factors are")
	t.Note("(7/4)² ≈ 3.06 (folded) and (10/4)² = 6.25 (enhanced) in the track-dominated limit.")
	return t
}

// E12Baselines regenerates the §2.2 comparison: direct multilayer design
// (area ÷ L²/4, volume ÷ L/2, wires ÷ L/2) versus folding a 2-layer layout
// (area ÷ L/2 only) versus the stacked collinear model.
func E12Baselines() *Table {
	t := &Table{
		ID:    "E12 (§2.2)",
		Title: "direct multilayer design vs folding vs stacked collinear (hypercube n=9)",
		Header: []string{"L", "direct-area", "folded-area", "direct-gain", "chan-gain", "paper L²/4",
			"fold-gain", "paper L/2", "direct-maxwire", "folded-maxwire",
			"direct-vol", "folded-vol"},
	}
	const n = 9
	base, err := core.Hypercube(n, 2, 0, 0)
	if err != nil {
		t.Fail("base build failed: %v", err)
		return t
	}
	b := base.Stats()
	baseGeom, _ := core.Plan(core.FromFactors("plan",
		track.Hypercube(n/2), track.Hypercube((n+1)/2), 2, 0))
	for _, l := range []int{2, 4, 8, 16} {
		direct, err := core.Hypercube(n, l, 0, 0)
		if err != nil {
			t.Fail("direct build failed L=%d: %v", l, err)
			continue
		}
		d := checkedStats(t, direct)
		folded, err := fold.Fold(base, l)
		if err != nil {
			t.Fail("fold failed L=%d: %v", l, err)
			continue
		}
		if v := fold.Verify(folded); len(v) > 0 {
			t.Fail("FOLD VERIFY FAILED L=%d: %v", l, v[0])
		}
		f := fold.Measure(folded)
		dg, _ := core.Plan(core.FromFactors("plan",
			track.Hypercube(n/2), track.Hypercube((n+1)/2), l, 0))
		t.Add(l, d.Area, f.Area,
			ratio(float64(b.Area), float64(d.Area)),
			ratio(float64(baseGeom.ChannelArea()), float64(dg.ChannelArea())),
			formulas.DirectAreaGain(l),
			ratio(float64(b.Area), float64(f.Area)), formulas.FoldingAreaGain(l),
			d.MaxWire, f.MaxWire, d.Volume, f.Volume)
	}
	c := track.Hypercube(n)
	s2 := fold.StackedCollinear(c, 2)
	s8 := fold.StackedCollinear(c, 8)
	t.Note("stacked collinear baseline (n=%d): area %d -> %d at L=8 (gain %.1f <= L/2), volume %d -> %d (no gain), maxwire unchanged at %d.",
		n, s2.Area, s8.Area, float64(s2.Area)/float64(s8.Area), s2.Volume, s8.Volume, s2.MaxWire)
	t.Note("chan-gain is the wiring-only gain: it tracks the paper's L²/4 exactly (up to ceilings);")
	t.Note("the full-area direct gain approaches it as N grows (node squares are the o(1) gap) — at")
	t.Note("this size folding can even win on raw area at L=16 while losing on volume and max wire,")
	t.Note("which is precisely the trade §2.2 describes.")
	return t
}

// E13LowerBounds regenerates the §1 optimality claims: measured areas
// versus the bisection-width lower bounds under the Thompson (L=2) and
// multilayer models.
func E13LowerBounds() *Table {
	t := &Table{
		ID:     "E13 (§1)",
		Title:  "optimality: measured area vs bisection lower bounds",
		Header: []string{"network", "N", "L", "area", "bisection", "LB", "area/LB"},
	}
	for _, l := range []int{2, 4, 8} {
		lowerBoundRow(t, "hypercube(9)", l, bounds.BisectionHypercube(9),
			func() (*layout.Layout, error) { return core.Hypercube(9, l, 0, 0) })
		lowerBoundRow(t, "8-ary 3-cube", l, bounds.BisectionKAry(8, 3),
			func() (*layout.Layout, error) { return core.KAryNCube(8, 3, l, false, 0, 0) })
		lowerBoundRow(t, "GHC(8,8)", l, bounds.BisectionGHC(8, 2),
			func() (*layout.Layout, error) { return core.GeneralizedHypercube([]int{8, 8}, l, 0, 0) })
		lowerBoundRow(t, "butterfly(6)", l, bounds.BisectionButterfly(6),
			func() (*layout.Layout, error) { return cluster.Butterfly(6, l, 0, 0) })
		lowerBoundRow(t, "CCC(6)", l, bounds.BisectionCCC(6),
			func() (*layout.Layout, error) { return cluster.CCC(6, l, 0, 0) })
		// 2-level HSN quotient is K_16; its bisection is that of the
		// complete graph over clusters times one link per pair.
		lowerBoundRow(t, "HSN(2,16)", l, bounds.BisectionComplete(16),
			func() (*layout.Layout, error) { return cluster.HSN(2, 16, l, 0, 0, nil) })
	}
	t.Note("every ratio >= 1 (legality); the multilayer bound (B/L)² is the paper's trivial bound,")
	t.Note("loose by design — the paper's 'within 2+o(1)' claims are against tighter counting")
	t.Note("arguments; shrinking ratios with L show the constructions track the bound's scaling.")
	return t
}

// lowerBoundRow builds one E13 layout and adds its row: measured area
// against the multilayer bisection bound (bisec/l)². A failed build is
// recorded as a table failure.
func lowerBoundRow(t *Table, name string, l, bisec int, build func() (*layout.Layout, error)) {
	lay, err := build()
	if err != nil {
		t.Fail("build failed %s L=%d: %v", name, l, err)
		return
	}
	st := lay.Stats()
	lb := bounds.MultilayerAreaLB(bisec, l)
	t.Add(name, st.N, l, st.Area, bisec, lb, ratio(float64(st.Area), lb))
}

// E14WireDelay regenerates the §2.2 performance motivation: simulated
// message latency under wire-proportional link delays drops by ≈ L/2.
func E14WireDelay() *Table {
	t := &Table{
		ID:    "E14 (§2.2 performance)",
		Title: "wire-delay simulation: latency vs layers (velocity 1 grid unit/cycle)",
		Header: []string{"network", "L", "pattern", "delivered", "avg-latency",
			"max-latency", "speedup-vs-L2"},
	}
	networks := []struct {
		name  string
		build func(l int) (*layout.Layout, error)
	}{
		{"hypercube(8)", func(l int) (*layout.Layout, error) { return core.Hypercube(8, l, 0, 0) }},
		{"8-ary 2-cube", func(l int) (*layout.Layout, error) { return core.KAryNCube(8, 2, l, true, 0, 0) }},
	}
	for _, nw := range networks {
		var baseAvg float64
		for _, l := range []int{2, 4, 8} {
			lay, err := nw.build(l)
			if err != nil {
				t.Fail("build failed %s L=%d: %v", nw.name, l, err)
				continue
			}
			for _, p := range []sim.Pattern{sim.Permutation, sim.BitComplement} {
				res := sim.Run(lay, sim.Config{Pattern: p, Velocity: 1, Seed: 7})
				speed := "-"
				if p == sim.Permutation {
					if l == 2 {
						baseAvg = res.AvgLatency
					}
					if baseAvg > 0 {
						speed = fmtF(baseAvg / res.AvgLatency)
					}
				}
				t.Add(nw.name, l, p.String(), res.Delivered, res.AvgLatency, res.MaxLatency, speed)
			}
		}
	}
	t.Note("speedup at L=8 approaches the paper's L/2 = 4 as wires dominate hop overheads.")
	return t
}
