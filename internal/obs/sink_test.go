package obs

import (
	"strings"
	"testing"
	"time"
)

// buildGoldenTrace drives a fixed span tree and counter set through a
// TraceSink under the fake clock, producing a byte-identical file on every
// run.
func buildGoldenTrace(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sink := NewTraceSink(&sb)
	o := fakeObserver(time.Microsecond, sink)

	root := o.StartSpan("build")
	root.SetAttr("rows", 4)
	place := root.Child("placement")
	place.End()
	root.End()
	o.Add(WiresRealized, 12)
	o.Set(WorkerCount, 2)
	o.Flush()
	if err := sink.Err(); err != nil {
		t.Fatalf("trace sink error: %v", err)
	}
	return sb.String()
}

// golden is the exact trace buildGoldenTrace writes: the fake clock ticks
// 1µs per reading, so build starts at t=1 and ends at the 4th reading
// (dur 3), placement spans readings 2..3 (dur 1). Keeping the literal here
// pins the wire format — field order, timestamp unit, parent links, the
// counter event, and the closing bracket.
const golden = `[
{"name":"placement","cat":"mlvlsi","ph":"X","ts":2,"dur":1,"pid":1,"tid":1,"id":2,"args":{"parent":1}},
{"name":"build","cat":"mlvlsi","ph":"X","ts":1,"dur":3,"pid":1,"tid":1,"id":1,"args":{"rows":4}},
{"name":"counters","ph":"C","ts":4,"dur":0,"pid":1,"tid":1,"args":{"batch_pipeline_stalls":0,"border_edges_reconciled":0,"breaker_opens":0,"budget_headroom":0,"cache_bytes":0,"cache_evictions":0,"cache_hits":0,"cache_inflight_waits":0,"cache_misses":0,"cells_allocated":0,"cells_planned":0,"chaos_injected":0,"client_retries":0,"degraded_served":0,"dense_checks":0,"merge_ns":0,"panics_recovered":0,"queue_depth":0,"queue_max_depth":0,"scratch_bytes":0,"scratch_reuses":0,"shed_deadline":0,"shed_draining":0,"shed_queue_full":0,"sparse_checks":0,"tile_bytes_peak":0,"tiled_checks":0,"tiles_checked":0,"unit_edges_checked":0,"verdict_hits":0,"verdict_misses":0,"wires_realized":12,"worker_count":2}}
]
`

func TestTraceSinkGolden(t *testing.T) {
	got := buildGoldenTrace(t)
	if got != golden {
		t.Fatalf("trace output changed:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestGoldenTraceValidates(t *testing.T) {
	if err := ValidateTrace([]byte(buildGoldenTrace(t))); err != nil {
		t.Fatalf("golden trace rejected: %v", err)
	}
}

func TestTraceSinkIgnoresEventsAfterFlush(t *testing.T) {
	var sb strings.Builder
	sink := NewTraceSink(&sb)
	o := fakeObserver(time.Microsecond, sink)
	o.StartSpan("a").End()
	o.Flush()
	before := sb.String()
	o.StartSpan("late").End()
	o.Flush()
	if sb.String() != before {
		t.Fatalf("sink accepted events after Flush")
	}
	if err := ValidateTrace([]byte(sb.String())); err != nil {
		t.Fatalf("flushed trace invalid: %v", err)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", "hello", "not a JSON event array"},
		{"empty array", "[]", "no events"},
		{"missing name", `[{"ph":"X","ts":1,"dur":1,"id":1}]`, "missing name"},
		{"negative ts", `[{"name":"a","ph":"X","ts":-1,"dur":1,"id":1}]`, "negative timestamp"},
		{"span without id", `[{"name":"a","ph":"X","ts":1,"dur":1}]`, "without id"},
		{"dangling parent", `[{"name":"a","ph":"X","ts":1,"dur":1,"id":1,"args":{"parent":99}}]`, "not a span"},
		{"unknown phase", `[{"name":"a","ph":"Q","ts":1,"dur":1}]`, "unknown phase"},
		{"no counters", `[{"name":"a","ph":"X","ts":1,"dur":1,"id":1}]`, "no counter snapshot"},
		{"incomplete counters", `[{"name":"a","ph":"X","ts":1,"dur":1,"id":1},{"name":"counters","ph":"C","ts":1,"dur":0,"args":{"wires_realized":1}}]`, "missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateTrace([]byte(tc.data))
			if err == nil {
				t.Fatalf("accepted invalid trace %q", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateTraceToleratesMissingTerminator(t *testing.T) {
	// A trace from an aborted run lacks the closing bracket; the Chrome
	// format tolerates that, but ValidateTrace (which gates finished files)
	// requires a complete document with the counter event.
	full := buildGoldenTrace(t)
	truncated := strings.TrimSuffix(full, "\n]\n")
	if err := ValidateTrace([]byte(truncated)); err == nil {
		t.Fatalf("truncated trace unexpectedly validated")
	}
}

func TestMetricsSinkSpanLookup(t *testing.T) {
	sink := NewMetricsSink()
	o := fakeObserver(time.Microsecond, sink)
	o.StartSpan("alpha").End()
	o.StartSpan("beta").End()
	if _, ok := sink.Span("alpha"); !ok {
		t.Fatalf("alpha span not retained")
	}
	if _, ok := sink.Span("gamma"); ok {
		t.Fatalf("phantom span found")
	}
	spans := sink.Spans()
	spans[0].Name = "mutated"
	if s, _ := sink.Span("alpha"); s.Name != "alpha" {
		t.Fatalf("Spans() exposed internal storage")
	}
}
