package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"mlvlsi"
)

// goldenSeed is the seed whose every requestable key has a golden entry.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile is testdata/golden.json: per content key, the layout's Stats
// as [N, Links, L, Width, Height, Area, Volume, MaxWire, TotalWire].
type goldenFile struct {
	Seed  int64             `json:"seed"`
	Stats map[string][9]int `json:"stats"`
}

func statsVec(s mlvlsi.Stats) [9]int {
	return [9]int{s.N, s.Links, s.L, s.Width, s.Height, s.Area, s.Volume, s.MaxWire, s.TotalWire}
}

// checker validates the layouts a run receives. Every key's stats must
// match its golden entry when one exists — and one must exist for every
// key under the golden seed — and must repeat exactly across all responses
// for the key within the run. Safe for concurrent use.
type checker struct {
	golden map[string][9]int
	strict bool

	mu   sync.Mutex
	seen map[string][9]int
}

func newChecker(seed int64) (*checker, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("reading embedded golden stats: %w", err)
	}
	return &checker{golden: g.Stats, strict: seed == goldenSeed, seen: make(map[string][9]int)}, nil
}

// stats checks one layout's Stats under its content key.
func (c *checker) stats(key string, s mlvlsi.Stats) error {
	v := statsVec(s)
	if g, ok := c.golden[key]; ok && g != v {
		return fmt.Errorf("key %s: stats %v differ from golden %v", key, v, g)
	} else if !ok && c.strict {
		return fmt.Errorf("key %s (%s): no golden entry for a seed-%d key", key, s.Name, goldenSeed)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != v {
		return fmt.Errorf("key %s: stats %v differ from %v earlier in this run", key, v, prev)
	}
	c.seen[key] = v
	return nil
}

// goldenKeys lists every request the golden seed can make, across all
// workloads (the churn pool in full, since a long run cycles through it).
func goldenKeys() []mlvlsi.BuildRequest {
	var out []mlvlsi.BuildRequest
	for _, w := range workloads {
		out = append(out, makePlan(w, goldenSeed, 0, false).keys...)
	}
	return out
}

// updateGolden builds every golden-seed key and rewrites
// testdata/golden.json beside this source file, one key per line.
func updateGolden() error {
	stats := make(map[string][9]int)
	scratch := mlvlsi.NewBuildScratch()
	for _, req := range goldenKeys() {
		canon, err := req.Canonical()
		if err != nil {
			return err
		}
		lay, err := mlvlsi.BuildSpecWith(context.Background(), canon, nil, scratch)
		if err != nil {
			return fmt.Errorf("building %s: %w", canon.Family.Name, err)
		}
		stats[canon.Key()] = statsVec(lay.Stats())
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"stats\": {\n", goldenSeed)
	for i, k := range keys {
		v, _ := json.Marshal(stats[k])
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %q: %s%s\n", k, v, sep)
	}
	b.WriteString("  }\n}\n")
	_, self, _, _ := runtime.Caller(0)
	path := filepath.Join(filepath.Dir(self), "testdata", "golden.json")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d golden entries to %s\n", len(keys), path)
	return nil
}
