package experiments

import (
	"errors"
	"strings"
	"testing"

	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
)

// noFailures asserts a table has rows and recorded no failures.
func noFailures(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", tab.ID)
	}
	for _, f := range tab.Failures {
		t.Errorf("%s: %s", tab.ID, f)
	}
}

func TestE1TracksMatchPaper(t *testing.T) {
	tab := E1CollinearKAry()
	noFailures(t, tab)
	for _, r := range tab.Rows {
		if r[5] != "yes" {
			t.Errorf("E1 row %v: track count mismatch", r)
		}
	}
}

func TestE2TracksMatchPaper(t *testing.T) {
	tab := E2CollinearComplete()
	noFailures(t, tab)
	for _, r := range tab.Rows {
		if r[3] != "yes" {
			t.Errorf("E2 row %v: track count mismatch", r)
		}
		if r[1] != r[4] {
			t.Errorf("E2 row %v: tracks != max cut (not strictly optimal)", r)
		}
	}
}

func TestE3TracksMatchPaper(t *testing.T) {
	tab := E3CollinearHypercube()
	noFailures(t, tab)
	for _, r := range tab.Rows {
		if r[4] != "yes" {
			t.Errorf("E3 row %v: track count mismatch", r)
		}
	}
}

func TestFamilyExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("family experiments are slow")
	}
	for _, tab := range []*Table{
		E4KAryNCube(), E5GeneralizedHypercube(), E8Hypercube(),
	} {
		noFailures(t, tab)
		if len(tab.String()) == 0 {
			t.Errorf("%s: empty rendering", tab.ID)
		}
	}
}

func TestClusterExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiments are slow")
	}
	for _, tab := range []*Table{
		E6Butterfly(), E7SwapNetworks(), E9CCC(), E11PNCluster(),
	} {
		noFailures(t, tab)
	}
}

func TestBaselineExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline experiments are slow")
	}
	for _, tab := range []*Table{
		E10FoldedEnhanced(), E12Baselines(), E13LowerBounds(), E14WireDelay(),
	} {
		noFailures(t, tab)
	}
}

// TestUnfinishedStepsAreFailures: a verifier that errors instead of
// returning violations, and an E13 build that errors, each record a table
// failure rather than dropping the row silently.
func TestUnfinishedStepsAreFailures(t *testing.T) {
	tab := &Table{ID: "T"}
	failVerify(tab, "clean", nil, nil)
	if len(tab.Failures) != 0 {
		t.Fatalf("a clean verify recorded %v", tab.Failures)
	}
	failVerify(tab, "panicked", nil, errors.New("worker panic"))
	failVerify(tab, "illegal", []grid.Violation{{}}, nil)
	lowerBoundRow(tab, "unbuildable", 2, 4, func() (*layout.Layout, error) {
		return nil, errors.New("no such layout")
	})
	if len(tab.Failures) != 3 || len(tab.Rows) != 0 {
		t.Fatalf("failures %q, rows %v: want the verify error, the violation and the build error, no rows",
			tab.Failures, tab.Rows)
	}
	for i, want := range []string{"VERIFY ERROR panicked", "VERIFY FAILED illegal", "build failed unbuildable L=2"} {
		if !strings.Contains(tab.Failures[i], want) {
			t.Errorf("failure %d = %q, want it to mention %q", i, tab.Failures[i], want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
	}
	tab.Add(1, 2.5)
	tab.Add("xx", 10000.0)
	tab.Note("hello %d", 42)
	out := tab.String()
	if !strings.Contains(out, "T — demo") || !strings.Contains(out, "hello 42") {
		t.Errorf("rendering broken:\n%s", out)
	}
	if !strings.Contains(out, "2.50") || !strings.Contains(out, "10000") {
		t.Errorf("number formatting broken:\n%s", out)
	}
}

func TestRatioGuards(t *testing.T) {
	if ratio(5, 0) != "-" {
		t.Error("zero denominator should render '-'")
	}
	if ratio(5, 2) != "2.50" {
		t.Errorf("ratio(5,2) = %s", ratio(5, 2))
	}
}

func TestE15CayleyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	noFailures(t, E15Cayley())
}

func TestE16Stack3DRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab := E16Stack3D()
	noFailures(t, tab)
}

func TestE17CompactionRuns(t *testing.T) {
	tab := E17Compaction()
	noFailures(t, tab)
	for _, r := range tab.Rows {
		changed := r[len(r)-1]
		if r[0] == "path-16 one-track-per-edge" {
			if changed != "YES" {
				t.Errorf("control row not compacted: %v", r)
			}
		} else if changed != "no" {
			t.Errorf("paper construction %s was compacted — recurrence not optimal: %v", r[0], r)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a", "b"}}
	tab.Add("x,y", 1)
	tab.Add(`quo"te`, 2)
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("missing header: %q", csv)
	}
	if !strings.Contains(csv, `"x,y",1`) {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"quo""te",2`) {
		t.Errorf("quote cell not escaped: %q", csv)
	}
}

func TestE18GenericRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	noFailures(t, E18GenericVsSpecialized())
}

func TestE19WireDistributionRuns(t *testing.T) {
	tab := E19WireDistribution()
	noFailures(t, tab)
}

// TestFailKeptApartFromNotes: a failure lands in Failures, not Notes, and
// the text rendering prints it under the notes.
func TestFailKeptApartFromNotes(t *testing.T) {
	tab := &Table{ID: "EX", Header: []string{"a"}}
	tab.Note("context")
	tab.Fail("build failed L=%d: %v", 4, "boom")
	if len(tab.Notes) != 1 || len(tab.Failures) != 1 || tab.Failures[0] != "build failed L=4: boom" {
		t.Fatalf("notes %q failures %q", tab.Notes, tab.Failures)
	}
	if out := tab.String(); !strings.HasSuffix(out, "note: context\nfailure: build failed L=4: boom\n") {
		t.Fatalf("rendering does not end with the note then the failure:\n%s", out)
	}
}
