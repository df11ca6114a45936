package experiments

import (
	"mlvlsi/internal/track"
)

// E1CollinearKAry regenerates the construction behind Figure 2: collinear
// k-ary n-cube layouts and their track recurrence f_k(n) = 2(kⁿ−1)/(k−1).
func E1CollinearKAry() *Table {
	t := &Table{
		ID:     "E1 (Fig. 2, §3.1)",
		Title:  "collinear k-ary n-cube track counts vs f_k(n) = 2(kⁿ−1)/(k−1)",
		Header: []string{"k", "n", "N", "tracks", "paper", "match", "max-cut"},
	}
	for _, k := range []int{2, 3, 4, 5, 6, 8} {
		for n := 1; n <= 4; n++ {
			c := track.KAryNCube(k, n, false)
			if err := c.Verify(); err != nil {
				t.Fail("VERIFY FAILED k=%d n=%d: %v", k, n, err)
				continue
			}
			paper := track.TrackCountKAry(k, n)
			if k == 2 {
				// A 2-node ring is a single link: f(n) = 2f(n−1)+1.
				paper = 1<<uint(n) - 1
			}
			match := "yes"
			if c.Tracks != paper {
				match = "NO"
			}
			t.Add(k, n, c.N, c.Tracks, paper, match, c.MaxCut())
		}
	}
	t.Note("Figure 2 itself (3-ary 2-cube, 8 tracks) renders via cmd/figures.")
	return t
}

// E2CollinearComplete regenerates Figure 3: the strictly optimal ⌊N²/4⌋
// track collinear layouts of complete graphs.
func E2CollinearComplete() *Table {
	t := &Table{
		ID:     "E2 (Fig. 3, §4.1)",
		Title:  "collinear complete-graph track counts vs ⌊N²/4⌋ (strictly optimal)",
		Header: []string{"N", "tracks", "paper", "match", "max-cut"},
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 32, 48, 64} {
		c := track.Complete(n)
		if err := c.Verify(); err != nil {
			t.Fail("VERIFY FAILED N=%d: %v", n, err)
			continue
		}
		paper := n * n / 4
		match := "yes"
		if c.Tracks != paper {
			match = "NO"
		}
		t.Add(n, c.Tracks, paper, match, c.MaxCut())
	}
	t.Note("tracks == max-cut everywhere: the layout meets the cut lower bound exactly.")
	return t
}

// E3CollinearHypercube regenerates Figure 4: ⌊2N/3⌋-track collinear
// hypercube layouts.
func E3CollinearHypercube() *Table {
	t := &Table{
		ID:     "E3 (Fig. 4, §5.1)",
		Title:  "collinear hypercube track counts vs ⌊2N/3⌋",
		Header: []string{"n", "N", "tracks", "paper", "match", "max-cut"},
	}
	for n := 1; n <= 14; n++ {
		c := track.Hypercube(n)
		paper := track.TrackCountHypercube(n)
		match := "yes"
		if c.Tracks != paper {
			match = "NO"
		}
		t.Add(n, c.N, c.Tracks, paper, match, c.MaxCut())
	}
	t.Note("base block: the 2-track 4-cycle (2-cube) of Fig. 4, two dimensions per product step.")
	return t
}
