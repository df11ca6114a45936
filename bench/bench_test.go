package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlvlsi"
)

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := pct(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("pct(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Two failed requests of 100 sit at +Inf: p99 lands on one, p50 does not.
	xs[3], xs[7] = math.Inf(1), math.Inf(1)
	if got := pct(append([]float64(nil), xs...), 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := pct(append([]float64(nil), xs...), 50); got != 50 {
		t.Errorf("p50 with 2%% failures = %v, want 50", got)
	}
	if got := finite(math.Inf(1), 10000); got != 10000 {
		t.Errorf("finite(+Inf) = %v, want the timeout", got)
	}
	if pct(nil, 50) != 0 {
		t.Error("pct of an empty sample should be 0")
	}
}

func TestSlicedP99(t *testing.T) {
	// Below two slices' worth the window is one slice: the plain p99.
	xs := make([]float64, 1500)
	for i := range xs {
		xs[i] = float64(i%100 + 1)
	}
	if got, want := slicedP99(xs), pct(append([]float64(nil), xs...), 99); got != want {
		t.Errorf("one slice: slicedP99 = %v, want the plain p99 %v", got, want)
	}
	// Three slices, one hit by a burst: the median slice ignores it, where a
	// plain p99 over the window lands inside the burst.
	xs = make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%100 + 1)
	}
	for i := 1000; i < 1040; i++ {
		xs[i] = 500
	}
	if got := slicedP99(xs); got != 99 {
		t.Errorf("burst in one slice: slicedP99 = %v, want 99", got)
	}
	if got := pct(append([]float64(nil), xs...), 99); got != 500 {
		t.Errorf("burst: plain p99 = %v, want 500 (the case slicing guards against)", got)
	}
	if xs[1000] != 500 || xs[0] != 1 {
		t.Error("slicedP99 reordered its input")
	}
}

func TestMedianOfMedians(t *testing.T) {
	// Three keys built three times each; key 1's cold first build and key
	// 2's disturbed one do not move their keys' medians.
	byKey := map[int][]float64{0: {1, 1.1, 0.9}, 1: {9, 2, 2.1}, 2: {3, 3.2, 30}}
	if got := medianOfMedians(byKey); got != 2.1 {
		t.Errorf("medianOfMedians = %v, want 2.1", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLatenessAndLadderVerdict(t *testing.T) {
	ph := phase{name: "ladder-2x", rate: 1000, lo: 0, hi: 100}
	slo := 2 * time.Millisecond
	steady := make([]shot, 100)
	for i := range steady {
		steady[i] = shot{late: 50 * time.Microsecond, lat: 500 * time.Microsecond, outcome: outHit}
	}
	st := summarize(ph, steady, slo)
	if !st.Pass || st.LateGrowthMs != 0 || st.P99ms != 0.5 || st.LateP99ms != 0.05 {
		t.Errorf("steady phase: %+v, want a pass with p99 0.5 ms, late p99 0.05 ms and no growth", st)
	}
	// A backlog: every request leaves 20 µs later than the one before.
	growing := make([]shot, 100)
	for i := range growing {
		late := time.Duration(i) * 20 * time.Microsecond
		growing[i] = shot{late: late, lat: late + 100*time.Microsecond, outcome: outHit}
	}
	st = summarize(ph, growing, slo)
	if st.Pass || st.LateGrowthMs < 1 {
		t.Errorf("growing backlog: %+v, want a failed step with lateness growth over 1 ms", st)
	}
	failed := append([]shot(nil), steady...)
	failed[10].outcome, failed[20].outcome = outFailed, outWrong
	st = summarize(ph, failed, slo)
	if st.Pass || st.Failed != 1 || st.Wrong != 1 || st.P99ms != ms(clientTimeout) {
		t.Errorf("failures: %+v, want a failed step whose p99 reads as the client timeout", st)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads {
		shots := 0
		if w.endpoint != "" {
			sched := schedule(w, 20, false)
			shots = sched[len(sched)-1].hi
		}
		a, b, c := makePlan(w, 1, shots, false), makePlan(w, 1, shots, false), makePlan(w, 2, shots, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 produced two different plans", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 produced the same plan", w.name)
		}
	}
}

func TestChurnMix(t *testing.T) {
	w := workloadByName("churn")
	p := makePlan(w, 7, 2000, false) // ~500 fresh draws: the pool does not cycle
	if len(p.keys) != churnPool {
		t.Fatalf("churn pool has %d keys, want %d", len(p.keys), churnPool)
	}
	enhanced := 0
	for _, k := range p.keys {
		if k.Family.Name == "enhanced" {
			enhanced++
		}
	}
	if share := float64(enhanced) / churnPool; share < 0.7 || share > 0.8 {
		t.Errorf("enhanced share of the pool = %.2f, want about three quarters", share)
	}
	// Fresh draws advance through the pool past the prewarmed keys, one in
	// every block; every other request re-requests a recent key.
	seen := make(map[int]bool)
	for _, k := range p.prewarm {
		seen[k] = true
	}
	for lo := 0; lo < len(p.stream); lo += churnBlock {
		fresh := 0
		for _, k := range p.stream[lo : lo+churnBlock] {
			if !seen[k] {
				fresh++
				seen[k] = true
			}
		}
		if fresh != 1 {
			t.Fatalf("block at %d holds %d fresh keys, want 1", lo, fresh)
		}
	}
}

func TestBalancedStream(t *testing.T) {
	p := makePlan(workloadByName("verify"), 3, 10*len(verifyKeys), false)
	for lo := 0; lo < len(p.stream); lo += len(verifyKeys) {
		seen := make(map[int]bool)
		for _, k := range p.stream[lo : lo+len(verifyKeys)] {
			seen[k] = true
		}
		if len(seen) != len(verifyKeys) {
			t.Fatalf("block at %d requests %d distinct keys, want all %d", lo, len(seen), len(verifyKeys))
		}
	}
}

func TestGoldenCheckerRejectsMutatedStats(t *testing.T) {
	chk, err := newChecker(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	req, err := spec("hypercube n=10 L=4").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	lay, err := mlvlsi.BuildSpec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := lay.Stats()
	if err := chk.stats(req.Key(), st); err != nil {
		t.Fatalf("golden stats rejected: %v", err)
	}
	st.Area++
	if err := chk.stats(req.Key(), st); err == nil {
		t.Error("checker accepted a mutated Area")
	}
	fresh, _ := newChecker(goldenSeed)
	if err := fresh.stats("not-a-golden-key", st); err == nil {
		t.Error("checker accepted a golden-seed key with no golden entry")
	}
	other, _ := newChecker(goldenSeed + 1)
	if err := other.stats("not-a-golden-key", st); err != nil {
		t.Errorf("a non-golden seed must accept unknown keys: %v", err)
	}
	st.Area++
	if err := other.stats("not-a-golden-key", st); err == nil {
		t.Error("checker accepted stats that changed within one run")
	}
}

func TestGoldenCoversSeedOne(t *testing.T) {
	chk, err := newChecker(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range goldenKeys() {
		if _, ok := chk.golden[req.Key()]; !ok {
			t.Errorf("no golden entry for %s %v L=%d", req.Family.Name, req.Family.Params, req.Layers)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := defOf("latency_p50_ms")
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", scale(base, 1.001), "ok"},
		{"40% slower", scale(base, 1.4), "regressed"},
		{"40% faster", scale(base, 0.6), "improved"},
		{"noisy", []float64{5, 15, 8, 12, 10, 20, 3, 10, 11, 9}, "unresolved"},
	} {
		if got := compareMetric(lat, base, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// max_rps reads the rate served at the top passing step. Falling from
	// the 4× step to the 2.8× one, 30% lower, exceeds the 25% bound.
	rps := defOf("max_rps")
	if got := compareMetric(rps, []float64{800.7, 800.6}, []float64{559.3, 559.4}).verdict; got != "regressed" {
		t.Errorf("max_rps one step down: verdict %q, want regressed", got)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range b.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json why %q differs from the table's %q", w.Name, w.Why, workloads[i].why)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table gates %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range b.EndToEnd {
		d := gated[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

// TestQuickEndToEnd runs every workload for about a second, untraced and
// traced, through the same code the benchmark runs: every correctness check
// must pass, every gated metric must be positive, and a traced run must
// report every per-layer metric from a trace that validates.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs in-process servers")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, runConfig{seed: 1, seconds: 1, quick: true, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			res := rec.result()
			if !traced {
				for _, d := range endToEnd {
					if v, ok := res.Metrics[d.name]; d.gated && (!ok || v.Value <= 0 || v.Unit != d.unit) {
						t.Errorf("%s: gated metric %s = %+v (present %v), want a positive value in %s", w.name, d.name, v, ok, d.unit)
					}
				}
				continue
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%s traced: %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayer))
			}
			for _, name := range []string{"trace.coverage", "loadgen.samples", "runtime.alloc_mb_per_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
				}
			}
		}
	}
}
