package experiments

import (
	"mlvlsi/internal/core"
	"mlvlsi/internal/stack"
)

// E16Stack3D compares the multilayer 2-D grid model against the multilayer
// 3-D grid model of §2.2 (nodes on L_A active layers): moving dimensions
// onto boards divides the footprint by about the board count while volume
// stays comparable — the paper's motivation for defining both models.
func E16Stack3D() *Table {
	t := &Table{
		ID:    "E16 (§2.2, 3-D model)",
		Title: "2-D vs 3-D multilayer grid model: footprint, volume, max wire",
		Header: []string{"network", "model", "boards", "L", "area", "volume",
			"maxwire", "footprint-gain"},
	}
	add3D := func(name string, flatArea int, s *stack.Layout3D) {
		if v := s.Verify(); len(v) > 0 {
			t.Fail("VERIFY FAILED %s: %v", s.Name, v[0])
		}
		st := s.Stats()
		t.Add(name, "3-D", st.Boards, s.LayersPerBoard, st.Area, st.Volume,
			st.MaxWire, ratio(float64(flatArea), float64(st.Area)))
	}
	for _, tc := range []struct{ n, l int }{{8, 2}, {8, 4}, {10, 4}} {
		flat, err := core.Hypercube(tc.n, tc.l, 0, 0)
		if err != nil {
			t.Fail("flat build failed: %v", err)
			continue
		}
		fs := checkedStats(t, flat)
		t.Add(flat.Name, "2-D", 1, tc.l, fs.Area, fs.Volume, fs.MaxWire, 1.0)
		for _, nz := range []int{1, 2, 3} {
			s, err := stack.Hypercube3D(tc.n, nz, tc.l, stack.Knobs{})
			if err != nil {
				t.Fail("3D build failed nz=%d: %v", nz, err)
				continue
			}
			add3D(flat.Name, fs.Area, s)
		}
	}
	for _, tc := range []struct{ k, n, nz, l int }{{4, 3, 1, 4}, {8, 3, 1, 4}} {
		flat, err := core.KAryNCube(tc.k, tc.n, tc.l, false, 0, 0)
		if err != nil {
			t.Fail("flat kary build failed: %v", err)
			continue
		}
		fs := checkedStats(t, flat)
		t.Add(flat.Name, "2-D", 1, tc.l, fs.Area, fs.Volume, fs.MaxWire, 1.0)
		s, err := stack.KAryNCube3D(tc.k, tc.n, tc.nz, tc.l, false, stack.Knobs{})
		if err != nil {
			t.Fail("3D kary build failed: %v", err)
			continue
		}
		add3D(flat.Name, fs.Area, s)
	}
	t.Note("each board spends L wiring layers plus one active layer, so a B-board stack uses")
	t.Note("B·(L+1) grid layers. Footprint gain tracks ≈ B² (the per-board sub-network is B×")
	t.Note("smaller and layout area is quadratic in node count) while volume improves by ≈ B —")
	t.Note("the 3-D-model side of §2.2's accounting, where folding a 2-D layout onto B boards")
	t.Note("would gain only B in footprint with volume unchanged.")
	return t
}
