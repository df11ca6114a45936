package experiments

import (
	"mlvlsi/internal/core"
	"mlvlsi/internal/generic"
	"mlvlsi/internal/topology"
)

// E18GenericVsSpecialized quantifies the value of the paper's structured
// constructions: the generic §2.3 router lays out any graph legally, but
// the product-structured layouts use provably tight channels. The premium
// column is the measured price of ignoring structure — and the generic
// rows for de Bruijn / shuffle-exchange graphs (networks the paper's
// context mentions but gives no construction for) show the scheme's
// general applicability.
func E18GenericVsSpecialized() *Table {
	t := &Table{
		ID:    "E18 (§2.3, generic router)",
		Title: "generic multilayer router vs structured constructions",
		Header: []string{"network", "N", "L", "generic-area", "specialized-area",
			"premium", "generic-maxwire", "spec-maxwire"},
	}
	type specialized func(l int) (area, maxwire int, err error)
	cases := []struct {
		g    *topology.Graph
		spec specialized
	}{
		{topology.Hypercube(7), func(l int) (int, int, error) {
			lay, err := core.Hypercube(7, l, 0, 0)
			if err != nil {
				return 0, 0, err
			}
			return lay.Area(), lay.MaxWireLength(), nil
		}},
		{topology.KAryNCube(5, 3), func(l int) (int, int, error) {
			lay, err := core.KAryNCube(5, 3, l, false, 0, 0)
			if err != nil {
				return 0, 0, err
			}
			return lay.Area(), lay.MaxWireLength(), nil
		}},
		{topology.GeneralizedHypercube([]int{8, 8}), func(l int) (int, int, error) {
			lay, err := core.GeneralizedHypercube([]int{8, 8}, l, 0, 0)
			if err != nil {
				return 0, 0, err
			}
			return lay.Area(), lay.MaxWireLength(), nil
		}},
	}
	for _, c := range cases {
		for _, l := range []int{2, 4, 8} {
			gen, err := generic.Layout(c.g, generic.Config{L: l})
			if err != nil {
				t.Fail("generic build failed %s L=%d: %v", c.g.Name, l, err)
				continue
			}
			gs := checkedStats(t, gen)
			sa, sw, err := c.spec(l)
			if err != nil {
				t.Fail("specialized build failed %s L=%d: %v", c.g.Name, l, err)
				continue
			}
			t.Add(c.g.Name, c.g.N, l, gs.Area, sa,
				ratio(float64(gs.Area), float64(sa)), gs.MaxWire, sw)
		}
	}
	// Families with no specialized construction: generic-only rows.
	for _, g := range []*topology.Graph{topology.DeBruijn(7), topology.ShuffleExchange(7)} {
		for _, l := range []int{2, 4, 8} {
			gen, err := generic.Layout(g, generic.Config{L: l})
			if err != nil {
				t.Fail("generic build failed %s L=%d: %v", g.Name, l, err)
				continue
			}
			gs := checkedStats(t, gen)
			t.Add(g.Name, g.N, l, gs.Area, "-", "-", gs.MaxWire, "-")
		}
	}
	t.Note("N is the graph's node count; the router pads the grid with isolated cells when N is")
	t.Note("not a product of the grid sides. L-scaling can be mildly non-monotone: more layer")
	t.Note("pools split the interval sets, and per-pool congestion sums need not shrink evenly.")
	t.Note("the premium (2-8x typical) is the measured value of exploiting product structure,")
	t.Note("§2.4's whole point; the de Bruijn / shuffle-exchange rows show §2.3's claim that the")
	t.Note("grid scheme lays out arbitrary networks under the multilayer model.")
	return t
}
