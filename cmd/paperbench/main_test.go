package main

import (
	"reflect"
	"testing"

	"mlvlsi/internal/experiments"
)

// TestFailuresDecideExit pins the exit decision: clean tables yield no
// failures (exit 0), and every failure of every table ran is reported under
// its table's ID (exit 1).
func TestFailuresDecideExit(t *testing.T) {
	clean := &experiments.Table{ID: "E1", Rows: [][]string{{"1"}}}
	clean.Note("an explanatory note mentioning a failed idea is not a failure")
	if got := failures([]*experiments.Table{clean}); len(got) != 0 {
		t.Fatalf("clean tables report failures %q", got)
	}
	if got := failures(nil); len(got) != 0 {
		t.Fatalf("no tables report failures %q", got)
	}

	broken := &experiments.Table{ID: "E8"}
	broken.Fail("build failed n=%d: %v", 12, "boom")
	broken.Fail("VERIFY FAILED %s", "hypercube")
	want := []string{"E8: build failed n=12: boom", "E8: VERIFY FAILED hypercube"}
	if got := failures([]*experiments.Table{clean, broken}); !reflect.DeepEqual(got, want) {
		t.Fatalf("failures = %q, want %q", got, want)
	}
}
