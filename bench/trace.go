package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"mlvlsi/internal/obs"
)

// windowObs is what a traced run observed over its measured window.
type windowObs struct {
	handler, transport []float64 // µs per traced request
	counters           obs.Metrics
	rt0, rt1           runtimeSample
	samples            int
	lateP99ms          float64
}

// layerValues derives the per-layer metrics: serving-side ones from the
// window, engine-side ones from the replay's spans and counter deltas, which
// a given seed reproduces exactly.
func layerValues(win windowObs, rs *replayStats, spans map[string]*spanStats) map[string]float64 {
	c, r := win.counters, rs.counters
	lv := map[string]float64{
		"serve.handler_p50_us":         pct(win.handler, 50),
		"serve.handler_p99_us":         pct(win.handler, 99),
		"serve.transport_p50_us":       pct(win.transport, 50),
		"serve.decode_us":              pct(rs.decode, 50),
		"serve.cache_get_us":           pct(rs.cacheHit, 50),
		"serve.encode_us":              pct(rs.encode, 50),
		"serve.cache_evictions":        float64(c.Get(obs.CacheEvictions)),
		"serve.cache_inflight_waits":   float64(c.Get(obs.CacheInflightWaits)),
		"serve.cache_mb":               float64(c.Get(obs.CacheBytes)) / (1 << 20),
		"mlvlsi.key_us":                pct(rs.key, 50),
		"mlvlsi.batch_stalls":          float64(c.Get(obs.BatchPipelineStalls)),
		"resilience.queue_max_depth":   float64(c.Get(obs.QueueMaxDepth)),
		"resilience.shed":              float64(c.Get(obs.ShedQueueFull) + c.Get(obs.ShedDeadline) + c.Get(obs.ShedDraining)),
		"core.wires_realized":          float64(r.Get(obs.WiresRealized)),
		"core.scratch_reuses":          float64(r.Get(obs.ScratchReuses)),
		"layout.stats_us":              pct(rs.stats, 50),
		"grid.unit_edges_checked":      float64(r.Get(obs.UnitEdgesChecked)),
		"grid.dense_checks":            float64(r.Get(obs.DenseChecks)),
		"grid.tiled_checks":            float64(r.Get(obs.TiledChecks)),
		"grid.sparse_checks":           float64(r.Get(obs.SparseChecks)),
		"grid.tiles_checked":           float64(r.Get(obs.TilesChecked)),
		"grid.border_edges_reconciled": float64(r.Get(obs.BorderEdgesReconciled)),
		"grid.occupancy_peak_mb":       rs.occupancyPeak / (1 << 20),
		"loadgen.late_p99_ms":          win.lateP99ms,
		"loadgen.samples":              float64(win.samples),
	}
	if lookups := c.Get(obs.CacheHits) + c.Get(obs.CacheMisses) + c.Get(obs.CacheInflightWaits); lookups > 0 {
		lv["serve.cache_hit_ratio"] = float64(c.Get(obs.CacheHits)) / float64(lookups)
	}
	if rs.builds > 0 {
		lv["core.allocs_per_build"] = float64(rs.mallocs) / float64(rs.builds)
		lv["core.bytes_per_build"] = float64(rs.allocBytes) / float64(rs.builds)
	}
	if b := spans["build"]; b != nil {
		lv["core.build_p50_ms"] = pct(b.durs, 50)
		lv["core.build_p99_ms"] = pct(b.durs, 99)
	}
	if v := spans["verify"]; v != nil {
		lv["grid.verify_p50_ms"] = pct(v.durs, 50)
		lv["grid.verify_p99_ms"] = pct(v.durs, 99)
		lv["grid.verify_total_s"] = v.total.Seconds()
		if v.total > 0 {
			lv["grid.unit_edges_per_us"] = float64(r.Get(obs.UnitEdgesChecked)) / us(v.total)
		}
	}
	for metric, span := range map[string]string{
		"core.placement_self_ms":   "placement",
		"core.routing_self_ms":     "routing",
		"core.realization_self_ms": "realization",
		"cluster.assemble_self_ms": "assemble",
		"grid.measure_self_ms":     "measure",
		"grid.walk_self_ms":        "walk",
		"grid.merge_self_ms":       "merge",
		"grid.resolve_self_ms":     "resolve",
		"grid.bin_self_ms":         "bin",
		"grid.reconcile_self_ms":   "reconcile",
	} {
		lv[metric] = spans[span].meanSelfMS()
	}
	lv["runtime.gc_cycles"], lv["runtime.gc_pause_p99_us"], lv["runtime.alloc_mb_per_s"] = runtimeDelta(win.rt0, win.rt1)
	return lv
}

// traceState is a traced run's observer: an in-memory sink for the
// per-layer arithmetic and a Chrome-trace sink, validated at the end.
type traceState struct {
	o     *obs.Observer
	sink  *obs.MetricsSink
	trace *obs.TraceSink
	buf   *bytes.Buffer
	// epoch is taken just after the observer's own, so a span that starts
	// after an instant t has a start offset of at least t.Sub(epoch).
	epoch time.Time
}

func newTraceState() *traceState {
	buf := &bytes.Buffer{}
	ts := &traceState{sink: obs.NewMetricsSink(), trace: obs.NewTraceSink(buf), buf: buf}
	ts.o = obs.New(ts.sink, ts.trace)
	ts.epoch = time.Now()
	return ts
}

// observer is the run's observer; nil (no observation) for an untraced run.
func (t *traceState) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.o
}

// spans aggregates the spans the replay produced.
func (t *traceState) spans(rs *replayStats) map[string]*spanStats {
	return aggregateSpans(t.sink.Spans(), rs.start.Sub(t.epoch), rs.end.Sub(t.epoch)+time.Microsecond)
}

// finish flushes the observer, validates the trace, and writes it to path
// when one is given.
func (t *traceState) finish(path string) error {
	t.o.Flush()
	if err := t.trace.Err(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := obs.ValidateTrace(t.buf.Bytes()); err != nil {
		return fmt.Errorf("trace fails validation: %w", err)
	}
	if path == "" {
		return nil
	}
	return os.WriteFile(path, t.buf.Bytes(), 0o644)
}
