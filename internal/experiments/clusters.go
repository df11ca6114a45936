package experiments

import (
	"mlvlsi/internal/cluster"
	"mlvlsi/internal/core"
	"mlvlsi/internal/formulas"
	"mlvlsi/internal/route"
)

// E6Butterfly regenerates §4.2: butterfly area 4N²/(L² log₂²N), volume
// /L, max wire 2N/(L log₂N), via the PN-cluster construction over the
// hypercube quotient (multiplicity 2; see DESIGN.md substitution notes).
func E6Butterfly() *Table {
	t := &Table{
		ID:    "E6 (§4.2)",
		Title: "butterfly: measured vs 4N²/(L²log₂²N) area, 2N/(L log₂N) max wire",
		Header: []string{"m", "N", "L", "area", "chan-area", "paper-area", "chan/paper",
			"maxwire", "paper-mw", "volume", "paper-vol"},
	}
	for _, m := range []int{4, 5, 6, 7} {
		for _, l := range []int{2, 4, 8} {
			lay, err := cluster.Butterfly(m, l, 0, 0)
			if err != nil {
				t.Fail("build failed m=%d L=%d: %v", m, l, err)
				continue
			}
			st := checkedStats(t, lay)
			geom, _ := cluster.ButterflyGeometry(m, l)
			paperArea := formulas.ButterflyArea(st.N, l)
			t.Add(m, st.N, l, st.Area, geom.ChannelArea(), paperArea,
				ratio(float64(geom.ChannelArea()), paperArea),
				st.MaxWire, formulas.ButterflyMaxWire(st.N, l),
				st.Volume, formulas.ButterflyVolume(st.N, l))
		}
	}
	t.Note("quotient is the binary hypercube with 2 links per pair (the exact [35] clustering")
	t.Note("is unpublished; see DESIGN.md); the Θ(N²/(L²log²N)) shape is preserved, the measured")
	t.Note("constant is reported against the paper's 4. chan/paper grows with L at small m because")
	t.Note("per-channel ceilings floor every channel at one track per layer group; along fixed L it")
	t.Note("stabilizes (5.5-7 at L=2), the engine's constant overhead for bent cross links.")
	return t
}

// E7SwapNetworks regenerates §4.3: HSN area N²/(4L²), max wire N/(2L),
// path wire N/L; HHN matches HSN; ISN versus butterfly factors.
func E7SwapNetworks() *Table {
	t := &Table{
		ID:    "E7 (§4.3)",
		Title: "swap networks: HSN vs N²/(4L²) area; HHN; ISN vs butterfly (÷4 area, ÷2 wire)",
		Header: []string{"network", "N", "L", "area", "chan-area", "paper-area", "chan/paper",
			"maxwire", "paper-mw", "pathwire", "paper-pw"},
	}
	for _, lr := range [][2]int{{2, 4}, {2, 8}, {3, 4}, {3, 8}, {4, 4}} {
		lvl, r := lr[0], lr[1]
		for _, l := range []int{2, 4, 8} {
			lay, err := cluster.HSN(lvl, r, l, 0, 0, nil)
			if err != nil {
				t.Fail("HSN build failed lvl=%d r=%d L=%d: %v", lvl, r, l, err)
				continue
			}
			st := checkedStats(t, lay)
			geom, _ := cluster.HSNGeometry(lvl, r, l)
			paperArea := formulas.HSNArea(st.N, l)
			pw := route.MaxPathWire(lay, 16, 0)
			t.Add(lay.Name, st.N, l, st.Area, geom.ChannelArea(), paperArea,
				ratio(float64(geom.ChannelArea()), paperArea),
				st.MaxWire, formulas.HSNMaxWire(st.N, l),
				pw, formulas.HSNPathWire(st.N, l))
		}
	}
	for _, lm := range [][2]int{{2, 3}, {3, 2}} {
		lay, err := cluster.HHN(lm[0], lm[1], 4, 0, 0)
		if err != nil {
			t.Fail("HHN build failed: %v", err)
			continue
		}
		st := checkedStats(t, lay)
		paperArea := formulas.HSNArea(st.N, 4)
		pw := route.MaxPathWire(lay, 16, 0)
		t.Add(lay.Name, st.N, 4, st.Area, "-", paperArea, ratio(float64(st.Area), paperArea),
			st.MaxWire, formulas.HSNMaxWire(st.N, 4), pw, formulas.HSNPathWire(st.N, 4))
	}
	// ISN vs butterfly comparison rows.
	for _, m := range []int{5, 6, 7} {
		bf, err1 := cluster.Butterfly(m, 4, 0, 0)
		isn, err2 := cluster.ISN(m, 4, 0, 0)
		if err1 != nil || err2 != nil {
			t.Fail("ISN/butterfly build failed m=%d: %v %v", m, err1, err2)
			continue
		}
		bs, is := bf.Stats(), isn.Stats()
		t.Add("ISN/butterfly m="+itoa(m), is.N, 4,
			is.Area, "-", float64(bs.Area)/4, ratio(float64(is.Area), float64(bs.Area)/4),
			is.MaxWire, float64(bs.MaxWire)/2, "-", "-")
	}
	t.Note("ISN rows compare against a quarter of the measured butterfly area and half its wire,")
	t.Note("the paper's stated relation; convergence to 4 and 2 is asymptotic in m.")
	t.Note("l=2 rows have a 1-D (single-digit) quotient, outside the orthogonal scheme's sweet spot;")
	t.Note("for l>=3 the chan/paper constant settles at ≈3.5-4: the swap attachments make every")
	t.Note("column link a bent edge whose escape + trunk tracks cost a small constant factor over")
	t.Note("the paper's idealized in-block wiring, stable in N (compare N=64 -> N=512 rows).")
	return t
}

func itoa(v int) string {
	return fmtF(float64(v))
}

// E9CCC regenerates §5.2: CCC area 16N²/(9L² log₂²N); reduced hypercubes
// lay out in asymptotically the same area.
func E9CCC() *Table {
	t := &Table{
		ID:     "E9 (§5.2)",
		Title:  "CCC and reduced hypercube: measured vs 16N²/(9L²log₂²N) area",
		Header: []string{"network", "N", "L", "area", "chan-area", "paper-area", "chan/paper", "maxwire", "volume"},
	}
	for _, n := range []int{3, 4, 5, 6} {
		for _, l := range []int{2, 4, 8} {
			lay, err := cluster.CCC(n, l, 0, 0)
			if err != nil {
				t.Fail("CCC build failed n=%d L=%d: %v", n, l, err)
				continue
			}
			st := checkedStats(t, lay)
			geom, _ := cluster.CCCGeometry(n, l)
			paperArea := formulas.CCCArea(st.N, l)
			t.Add(lay.Name, st.N, l, st.Area, geom.ChannelArea(), paperArea,
				ratio(float64(geom.ChannelArea()), paperArea), st.MaxWire, st.Volume)
		}
	}
	for _, nl := range [][2]int{{4, 2}, {4, 4}, {8, 2}} {
		lay, err := cluster.ReducedHypercube(nl[0], nl[1], 0, 0)
		if err != nil {
			t.Fail("RH build failed: %v", err)
			continue
		}
		st := checkedStats(t, lay)
		paperArea := formulas.CCCArea(st.N, nl[1])
		t.Add(lay.Name, st.N, nl[1], st.Area, "-", paperArea,
			ratio(float64(st.Area), paperArea), st.MaxWire, st.Volume)
	}
	t.Note("the paper reports this layout beats the Chen–Lau CCC layout [8]; the 16/9 constant")
	t.Note("comes from the hypercube quotient, with cycle strips absorbed into the o(·) term.")
	return t
}

// E11PNCluster regenerates §3.2: k-ary n-cube cluster-c area stays within
// (1 + o(1)) of the quotient k-ary n-cube for small c.
func E11PNCluster() *Table {
	t := &Table{
		ID:     "E11 (§3.2)",
		Title:  "k-ary n-cube cluster-c: area overhead vs plain k-ary n-cube",
		Header: []string{"k", "n", "c", "N", "L", "area", "base-area", "overhead"},
	}
	for _, l := range []int{2, 4} {
		base, err := core.KAryNCube(4, 4, l, false, 0, 0)
		if err != nil {
			t.Fail("base build failed: %v", err)
			continue
		}
		bs := base.Stats()
		for _, c := range []int{2, 4, 8} {
			lay, err := cluster.KAryClusterC(4, 4, c, l, 0, 0)
			if err != nil {
				t.Fail("cluster build failed c=%d: %v", c, err)
				continue
			}
			st := checkedStats(t, lay)
			t.Add(4, 4, c, st.N, l, st.Area, bs.Area, ratio(float64(st.Area), float64(bs.Area)))
		}
	}
	t.Note("§3.2 predicts overhead → 1 while c = o(k^{n/2−1}); growth with c is the expected")
	t.Note("departure once cluster strips stop being negligible.")
	return t
}
