package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"mlvlsi/internal/obs"
)

// pct returns the p-th percentile (0 < p <= 100) of xs by the nearest-rank
// rule, sorting xs in place. A failed or refused request is recorded as
// +Inf, so it counts as missing any limit a percentile is compared against.
// An empty sample yields 0.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// p99Slice is the fewest samples a slice of slicedP99 holds: its p99 then
// has at least ten samples past it.
const p99Slice = 1000

// slicedP99 estimates the p99 of a window of latencies (in schedule order)
// per slice: the window is cut into as many equal consecutive slices of at
// least p99Slice samples as it holds (one when it holds fewer than twice
// that), and the median of the slices' p99s is reported. A host hiccup of a
// few milliseconds then moves one slice's p99, not the window's. xs keeps
// its order.
func slicedP99(xs []float64) float64 {
	k := max(1, len(xs)/p99Slice)
	p99s := make([]float64, k)
	for i := range p99s {
		p99s[i] = pct(append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...), 99)
	}
	return median(p99s)
}

// medianOfMedians is the median, over keys, of each key's median sample.
// Set-up builds every key once per repetition. A key's median across the
// repetitions drops a cold or disturbed build, and the median across keys
// then lands on the same keys in every run; the median of all builds pooled
// would jump between neighbouring keys' costs.
func medianOfMedians(byKey map[int][]float64) float64 {
	meds := make([]float64, 0, len(byKey))
	for _, xs := range byKey {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds)
	return median(meds)
}

// quartiles returns the three cut points of xs into four equal groups by
// the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads computed here match the ones an external
// checker computes from the same values. xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q[0], median(xs), q[2]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); xs keeps its order.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms and us convert a duration to a float in the named unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// finite replaces +Inf (a percentile that landed on a failed request) with
// the client timeout in the same unit, so every reported value is a JSON
// number while still reading as "missed every limit".
func finite(v float64, timeoutUnits float64) float64 {
	if math.IsInf(v, 1) {
		return timeoutUnits
	}
	return v
}

// spanStats aggregates the spans of one name: how many ended, their total
// and self durations (a span's self time is its duration minus the part its
// direct children cover), and every duration for percentiles.
type spanStats struct {
	count int
	total time.Duration
	self  time.Duration
	durs  []float64 // milliseconds
}

// meanSelfMS is the mean self time per span in milliseconds (0 when no span
// of the name ended).
func (s *spanStats) meanSelfMS() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return ms(s.self) / float64(s.count)
}

// aggregateSpans groups spans whose start lies in [from, to) by name.
// Children are matched by parent ID over the same set; spans only ever
// parent spans that started earlier in the same interval.
func aggregateSpans(spans []obs.SpanRecord, from, to time.Duration) map[string]*spanStats {
	childDur := make(map[uint64]time.Duration)
	for _, s := range spans {
		if s.Start >= from && s.Start < to && s.Parent != 0 {
			childDur[s.Parent] += s.Dur
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		self := s.Dur - childDur[s.ID]
		if self < 0 {
			self = 0
		}
		st.count++
		st.total += s.Dur
		st.self += self
		st.durs = append(st.durs, ms(s.Dur))
	}
	return out
}

// runtimeSample is a point-in-time read of the Go runtime metrics the
// per-layer report differences over a window.
type runtimeSample struct {
	at         time.Time
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		at:         time.Now(),
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		pauses:     s[2].Value.Float64Histogram(),
	}
}

// runtimeDelta reports GC cycles, the p99 GC pause (µs, the upper edge of
// the histogram bucket holding it) and the allocation rate (MB/s) between
// two samples.
func runtimeDelta(a, b runtimeSample) (cycles, pauseP99us, allocMBps float64) {
	cycles = float64(b.gcCycles - a.gcCycles)
	if dt := b.at.Sub(a.at).Seconds(); dt > 0 {
		allocMBps = float64(b.allocBytes-a.allocBytes) / 1e6 / dt
	}
	var total uint64
	delta := make([]uint64, len(b.pauses.Counts))
	for i := range delta {
		delta[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return cycles, 0, allocMBps
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			edge := b.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.pauses.Buckets[i]
			}
			return cycles, edge * 1e6, allocMBps
		}
	}
	return cycles, 0, allocMBps
}

// hostSink keeps hostLoopMS's loop from being optimized away.
var hostSink uint64

// hostLoopMS times a fixed integer loop, which touches no memory and calls
// no code of the repository, nine times and returns the median in ms: the
// host's own speed at that moment. Recorded beside every run, it tells
// drift in the machine apart from a change in the code.
func hostLoopMS() float64 {
	xs := make([]float64, 9)
	for i := range xs {
		t := time.Now()
		x := uint64(i)
		for j := 0; j < 2_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		hostSink += x
		xs[i] = ms(time.Since(t))
	}
	return median(xs)
}

// maxRSSMB is the process's resident-memory high-water mark so far
// (Rusage.Maxrss): set-up, every measured phase and everything retained
// between them. A workload run is one process, so read at its end this is
// the workload's peak.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}
