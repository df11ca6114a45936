package experiments

import (
	"mlvlsi/internal/cluster"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/route"
)

// E15Cayley measures the §4.3 extension layouts: star, pancake,
// bubble-sort, and transposition networks laid out over their
// complete-graph last-symbol quotients. The ICPP paper promises these
// families the same multilayer gains without deriving constants, so the
// table reports measured area/wire data and the L-scaling.
func E15Cayley() *Table {
	t := &Table{
		ID:    "E15 (§4.3 extension)",
		Title: "Cayley families over K_n quotients: measured costs and L-scaling",
		Header: []string{"network", "N", "L", "area", "maxwire", "pathwire",
			"area-gain-vs-L2"},
	}
	families := []struct {
		name  string
		build func(n, l, nodeSide, workers int) (*layout.Layout, error)
		n     int
	}{
		{"star", cluster.Star, 5},
		{"pancake", cluster.Pancake, 5},
		{"bubblesort", cluster.BubbleSort, 5},
		{"transposition", cluster.Transposition, 4},
		{"SCC", cluster.SCC, 5},
	}
	for _, f := range families {
		var base int
		for _, l := range []int{2, 4, 8} {
			lay, err := f.build(f.n, l, 0, 0)
			if err != nil {
				t.Fail("build failed %s L=%d: %v", f.name, l, err)
				continue
			}
			st := checkedStats(t, lay)
			if l == 2 {
				base = st.Area
			}
			t.Add(lay.Name, st.N, l, st.Area, st.MaxWire,
				route.MaxPathWire(lay, 16, 0), ratio(float64(base), float64(st.Area)))
		}
	}
	t.Note("the paper defers these families to the strategies of [30] (complete-graph and star")
	t.Note("layouts); measured gains confirm the same multilayer behaviour carries over.")
	return t
}
