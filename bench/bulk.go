package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"mlvlsi"
	"mlvlsi/internal/obs"
)

// bulkRun is the closed-loop batch caller's measurement: one VerifyBatch
// call per pass over the whole sequence, repeated until the run's length is
// spent.
type bulkRun struct {
	passes []float64 // seconds per pass
	items  int
	failed int
	first  string
}

// canonical resolves every request once, as the batch caller would.
func canonical(reqs []mlvlsi.BuildRequest) ([]mlvlsi.BuildRequest, error) {
	out := make([]mlvlsi.BuildRequest, len(reqs))
	for i, r := range reqs {
		c, err := r.Canonical()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// bulkSetup is the batch caller's set-up: a fresh scratch grown by building
// every item of the sequence once, serially as the serving prewarm does,
// each layout's stats checked against the golden table. It returns the
// elapsed seconds and adds each build's latency in ms to builds, by item.
func bulkSetup(reqs []mlvlsi.BuildRequest, chk *checker, builds map[int][]float64) (float64, error) {
	runtime.GC() // every repetition starts from the same heap, untimed
	start := time.Now()
	scratch := mlvlsi.NewBuildScratch()
	for i, r := range reqs {
		r.Workers = 1
		t := time.Now()
		lay, err := mlvlsi.BuildSpecWith(context.Background(), r, nil, scratch)
		if err != nil {
			return 0, fmt.Errorf("bulk setup build of %s: %w", r.Family.Name, err)
		}
		builds[i] = append(builds[i], ms(time.Since(t)))
		if err := chk.stats(r.Key(), lay.Stats()); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// bulkPass calls VerifyBatch once over the sequence and records its wall
// time. Every item must come back with a nil Err and no violations. A full
// GC runs first, untimed: the previous pass's layouts and scratches are
// garbage by then, and collecting them at the same point in every run,
// rather than wherever the pacer happens to, keeps the process's peak RSS
// from depending on timing (see README.md, "Measured spread").
func bulkPass(reqs []mlvlsi.BuildRequest, o *obs.Observer, br *bulkRun) time.Duration {
	runtime.GC()
	t := time.Now()
	res := mlvlsi.VerifyBatch(context.Background(), reqs, mlvlsi.BatchOptions{Observer: o})
	d := time.Since(t)
	br.passes = append(br.passes, d.Seconds())
	for i, r := range res {
		br.items++
		if r.Err == nil && len(r.Violations) == 0 {
			continue
		}
		br.failed++
		if br.first == "" {
			br.first = fmt.Sprintf("bulk item %d (%s): err %v, %d violations", i, reqs[i].Family.Name, r.Err, len(r.Violations))
		}
	}
	return d
}

// bulkReplay builds and verifies one pass item by item on one reused
// scratch with the observer attached, timing each call (the bulk analogue
// of the serving replay).
func bulkReplay(o *obs.Observer, reqs []mlvlsi.BuildRequest) (*replayStats, error) {
	rs := &replayStats{start: time.Now()}
	before := o.Snapshot()
	scratch := mlvlsi.NewBuildScratch()
	ctx := context.Background()
	for _, r := range reqs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tb := time.Now()
		lay, err := mlvlsi.BuildSpecWith(ctx, r, o, scratch)
		bd := time.Since(tb)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		rs.builds++
		rs.mallocs += m1.Mallocs - m0.Mallocs
		rs.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		ts := time.Now()
		_ = lay.Stats()
		_ = lay.MemBytes()
		sd := time.Since(ts)
		rs.stats = append(rs.stats, us(sd))
		c0 := o.Snapshot()
		opts := r.Options()
		opts.Context, opts.Observer = ctx, o
		tv := time.Now()
		vs, err := mlvlsi.VerifyLayout(lay, opts)
		vd := time.Since(tv)
		if err != nil || len(vs) > 0 {
			return nil, fmt.Errorf("replayed verify of %s: %d violations, err %v", r.Family.Name, len(vs), err)
		}
		rs.occupancyPeak = math.Max(rs.occupancyPeak, occupancyBytes(c0, o.Snapshot()))
		rs.stageSum = append(rs.stageSum, us(bd)+us(sd)+us(vd))
	}
	rs.end = time.Now()
	rs.counters = delta(before, o.Snapshot())
	return rs, nil
}

func runBulk(w *workload, c runConfig, rec *record) error {
	p := makePlan(w, c.seed, 0, c.quick)
	reqs, err := canonical(p.keys)
	if err != nil {
		return err
	}
	chk, err := newChecker(c.seed)
	if err != nil {
		return err
	}
	var setup []float64
	builds := make(map[int][]float64)
	setUp := func(reps int) error {
		for i := 0; i < reps; i++ {
			s, err := bulkSetup(reqs, chk, builds)
			if err != nil {
				return err
			}
			setup = append(setup, s)
		}
		return nil
	}
	// As in the serving workloads, the set-up repetitions are split around
	// the measured passes.
	if err := setUp(1); err != nil {
		return err
	}
	reps := c.setupReps(setup[0])
	before := reps/2 + 1
	if err := setUp(before - 1); err != nil {
		return err
	}
	// Passes run until the budget is spent, at least minPasses, and none that
	// would end past it (judged by the previous pass). A traced run leaves a
	// fifth of the budget for the replay and alternates untraced passes (br,
	// the end-to-end numbers) with passes under the observer (tb), so drift
	// in the machine cancels out of the tracing overhead.
	budget := time.Duration(c.seconds * float64(time.Second))
	minPasses := 2
	if c.quick && !c.traced {
		minPasses = 1
	}
	var (
		br, tb   bulkRun
		ts       *traceState
		rt0, rt1 runtimeSample
		counters obs.Metrics
	)
	// One untimed pass comes first, inside the budget: it grows the heap to
	// its working size and takes the page faults that come with that, which
	// made first passes 8% slower than the rest on average.
	start := time.Now()
	var warm bulkRun
	last := bulkPass(reqs, nil, &warm)
	if c.traced {
		budget = budget * 4 / 5
		ts = newTraceState()
		rt0 = readRuntime()
	}
	for n := 0; n < minPasses || time.Since(start)+last <= budget; n++ {
		if c.traced && n%2 == 1 {
			last = bulkPass(reqs, ts.o, &tb)
		} else {
			last = bulkPass(reqs, nil, &br)
		}
	}
	if c.traced {
		rt1, counters = readRuntime(), ts.o.Snapshot()
	}
	if err := setUp(reps - before); err != nil {
		return err
	}
	rec.SetupRuns = setup
	rec.Attempted, rec.Failed = br.items, br.failed
	rec.Correct = warm.failed+br.failed+tb.failed == 0
	for _, first := range []string{warm.first, br.first, tb.first} {
		if first != "" {
			rec.Notes = append(rec.Notes, first)
		}
	}
	rec.Samples = map[string]int{"passes": len(br.passes), "items": br.items}
	rec.PassRuns = br.passes
	passMS := make([]float64, len(br.passes))
	for i, s := range br.passes {
		passMS[i] = s * 1000
	}
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	rec.setMetric("setup_s", median(setup))
	rec.setMetric("peak_rss_mb", rss)
	rec.setMetric("latency_p50_ms", pct(passMS, 50))
	rec.setMetric("latency_p99_ms", pct(passMS, 99))
	rec.setMetric("miss_p50_ms", medianOfMedians(builds))
	// One closed-loop caller always runs at the highest rate it can reach:
	// the items of a pass over the median pass time.
	rec.setMetric("max_rps", float64(len(reqs))/median(br.passes))
	rec.setMetric("run_s", median(br.passes))
	rec.setMetric("error_ratio", float64(br.failed)/float64(max(1, br.items)))
	if !c.traced {
		return nil
	}
	rs, err := bulkReplay(ts.o, reqs)
	if err != nil {
		return err
	}
	win := windowObs{counters: counters, rt0: rt0, rt1: rt1, samples: br.items + tb.items}
	lv := layerValues(win, rs, ts.spans(rs))
	lv["trace.overhead_p50"] = median(tb.passes)/median(br.passes) - 1
	lv["trace.coverage"] = sum(rs.stageSum) / (median(tb.passes) * 1e6)
	rec.setLayers(lv)
	return ts.finish(c.traceOut)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
