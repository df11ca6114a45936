package experiments

import (
	"mlvlsi/internal/core"
	"mlvlsi/internal/track"
)

// E17Compaction is the track-assignment ablation DESIGN.md calls out: the
// paper's structured track recurrences (product-combinator track ids)
// versus per-instance optimal greedy recoloring. For every construction in
// the paper the two coincide — the recurrences are congestion-optimal for
// their placements — which is itself a result worth machine-checking; a
// deliberately wasteful assignment shows the compactor is not a no-op.
func E17Compaction() *Table {
	t := &Table{
		ID:    "E17 (ablation)",
		Title: "structured track recurrences vs optimal per-channel recoloring",
		Header: []string{"spec", "chanW", "chanH", "compact-chanW", "compact-chanH",
			"changed"},
	}
	cases := []struct {
		name string
		spec core.Spec
	}{
		{"hypercube n=10", core.FromFactors("h10", track.Hypercube(5), track.Hypercube(5), 2, 0)},
		{"4-ary 4-cube", core.FromFactors("k44", track.KAryNCube(4, 2, false), track.KAryNCube(4, 2, false), 2, 0)},
		{"8-ary 2-cube", core.FromFactors("k82", track.KAryNCube(8, 1, false), track.KAryNCube(8, 1, false), 2, 0)},
		{"GHC(8,8)", core.FromFactors("g88", track.GeneralizedHypercube([]int{8}), track.GeneralizedHypercube([]int{8}), 2, 0)},
		{"GHC(5,5) odd r", core.FromFactors("g55", track.GeneralizedHypercube([]int{5}), track.GeneralizedHypercube([]int{5}), 2, 0)},
		{"folded 16-ring²", core.FromFactors("f16", track.FoldedRing(16), track.FoldedRing(16), 2, 0)},
	}
	// A wasteful control: every edge on its own track.
	wasteful := core.Spec{Name: "wasteful-control", Rows: 1, Cols: 16, L: 2}
	for i := 0; i+1 < 16; i++ {
		wasteful.RowEdges = append(wasteful.RowEdges, core.ChannelEdge{
			Index: 0, U: i, V: i + 1, Track: i,
		})
	}
	cases = append(cases, struct {
		name string
		spec core.Spec
	}{"path-16 one-track-per-edge", wasteful})

	for _, c := range cases {
		before, err := core.Plan(c.spec)
		if err != nil {
			t.Fail("plan failed %s: %v", c.name, err)
			continue
		}
		after, err := core.Plan(core.CompactTracks(c.spec))
		if err != nil {
			t.Fail("compact plan failed %s: %v", c.name, err)
			continue
		}
		changed := "no"
		if after.ChannelWidth != before.ChannelWidth || after.ChannelHeight != before.ChannelHeight {
			changed = "YES"
		}
		t.Add(c.name, before.ChannelWidth, before.ChannelHeight,
			after.ChannelWidth, after.ChannelHeight, changed)
	}
	t.Note("'no' on every paper construction = the recurrences already meet the per-placement")
	t.Note("congestion bound; the control row shows the compactor finds real slack when it exists.")
	return t
}
