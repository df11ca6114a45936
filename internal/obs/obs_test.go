package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeObserver returns an observer whose clock advances by step on every
// reading, making span timestamps and durations deterministic.
func fakeObserver(step time.Duration, sinks ...Sink) *Observer {
	o := New(sinks...)
	var t time.Duration
	o.now = func() time.Duration {
		t += step
		return t
	}
	return o
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Add(WiresRealized, 5)
	o.Set(WorkerCount, 3)
	if m := o.Snapshot(); m.Get(WiresRealized) != 0 {
		t.Fatalf("nil observer snapshot not zero: %+v", m)
	}
	if m := o.Flush(); m.Get(WorkerCount) != 0 {
		t.Fatalf("nil observer flush not zero: %+v", m)
	}
	sp := o.StartSpan("root")
	if sp != nil {
		t.Fatalf("nil observer returned a non-nil span")
	}
	child := sp.Child("child").SetAttr("k", 1)
	if child != nil {
		t.Fatalf("nil span Child/SetAttr returned non-nil")
	}
	if d := child.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	if child.Observer() != nil {
		t.Fatalf("nil span Observer() not nil")
	}
}

func TestNilObserverZeroAllocs(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		sp := o.StartSpan("root")
		c := sp.Child("child")
		c.SetAttr("k", 1)
		o.Add(UnitEdgesChecked, 10)
		o.Set(WorkerCount, 4)
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled observer allocates: %v allocs/op", allocs)
	}
}

func TestSpanNestingAndOrdering(t *testing.T) {
	sink := NewMetricsSink()
	o := fakeObserver(time.Microsecond, sink)

	root := o.StartSpan("build")
	a := root.Child("placement")
	a.End()
	b := root.Child("routing")
	bb := b.Child("tracks")
	bb.End()
	b.End()
	root.SetAttr("rows", 4).End()

	spans := sink.Spans()
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	// Sinks see spans in end order: children before their parents.
	want := []string{"placement", "tracks", "routing", "build"}
	if len(names) != len(want) {
		t.Fatalf("got spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("span order %v, want %v", names, want)
		}
	}

	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["placement"].Parent != byName["build"].ID {
		t.Errorf("placement parent = %d, want build's id %d", byName["placement"].Parent, byName["build"].ID)
	}
	if byName["tracks"].Parent != byName["routing"].ID {
		t.Errorf("tracks parent = %d, want routing's id %d", byName["tracks"].Parent, byName["routing"].ID)
	}
	if byName["build"].Parent != 0 {
		t.Errorf("root has parent %d, want 0", byName["build"].Parent)
	}
	if len(byName["build"].Attrs) != 1 || byName["build"].Attrs[0] != (Attr{Key: "rows", Val: 4}) {
		t.Errorf("build attrs = %v", byName["build"].Attrs)
	}
	// IDs are unique.
	seen := map[uint64]bool{}
	for _, s := range spans {
		if s.ID == 0 || seen[s.ID] {
			t.Fatalf("span id %d zero or duplicated", s.ID)
		}
		seen[s.ID] = true
	}
	// The fake clock ticks once per reading, so every span has dur > 0 and
	// children start after their parents.
	for _, s := range spans {
		if s.Dur <= 0 {
			t.Errorf("span %s has dur %v", s.Name, s.Dur)
		}
	}
	if byName["placement"].Start <= byName["build"].Start {
		t.Errorf("child started before parent")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	sink := NewMetricsSink()
	o := fakeObserver(time.Microsecond, sink)
	sp := o.StartSpan("once")
	d1 := sp.End()
	if d1 <= 0 {
		t.Fatalf("first End = %v, want > 0", d1)
	}
	if d2 := sp.End(); d2 != 0 {
		t.Fatalf("second End = %v, want 0", d2)
	}
	if n := len(sink.Spans()); n != 1 {
		t.Fatalf("double End delivered %d spans, want 1", n)
	}
}

func TestCountersConcurrent(t *testing.T) {
	o := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Add(UnitEdgesChecked, 2)
			}
		}()
	}
	wg.Wait()
	if got := o.Snapshot().Get(UnitEdgesChecked); got != workers*per*2 {
		t.Fatalf("concurrent adds lost updates: %d, want %d", got, workers*per*2)
	}
}

func TestFlushDeliversSnapshot(t *testing.T) {
	sink := NewMetricsSink()
	o := New(sink)
	o.Add(WiresRealized, 7)
	o.Set(WorkerCount, 2)
	if _, ok := sink.Metrics(); ok {
		t.Fatalf("sink flushed before Flush")
	}
	m := o.Flush()
	got, ok := sink.Metrics()
	if !ok {
		t.Fatalf("Flush did not reach the sink")
	}
	if got != m || got.Get(WiresRealized) != 7 || got.Get(WorkerCount) != 2 {
		t.Fatalf("sink snapshot %+v, want %+v", got, m)
	}
}

func TestCounterNamesAndClasses(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || name == "counter_unknown" {
			t.Errorf("counter %d has no name", c)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if Counter(200).String() != "counter_unknown" {
		t.Errorf("out-of-range counter name = %q", Counter(200).String())
	}
	for c, want := range map[Counter]Class{
		WiresRealized:      ClassWork,
		UnitEdgesChecked:   ClassWork,
		DenseChecks:        ClassWork,
		SparseChecks:       ClassWork,
		CellsPlanned:       ClassWork,
		CellsAllocated:     ClassWork,
		BudgetHeadroom:     ClassConfig,
		WorkerCount:        ClassConfig,
		MergeNanos:         ClassTiming,
		CacheHits:          ClassServe,
		CacheMisses:        ClassServe,
		CacheEvictions:     ClassServe,
		CacheInflightWaits: ClassServe,
		CacheBytes:         ClassServe,
		QueueDepth:         ClassServe,
		QueueMaxDepth:      ClassServe,
		ShedQueueFull:      ClassServe,
		ShedDeadline:       ClassServe,
		ShedDraining:       ClassServe,
		DegradedServed:     ClassServe,
		PanicsRecovered:    ClassServe,
		ClientRetries:      ClassServe,
		BreakerOpens:       ClassServe,
		ChaosInjected:      ClassServe,
		VerdictHits:        ClassServe,
		VerdictMisses:      ClassServe,
	} {
		if c.Class() != want {
			t.Errorf("%s.Class() = %d, want %d", c, c.Class(), want)
		}
	}
}
