package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mlvlsi"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
	"mlvlsi/internal/serve"
)

// serverConfig is layoutd's default configuration (its flag defaults): a
// 256 MiB cache, a two-minute request deadline, admission slots equal to
// GOMAXPROCS with four queued waiters per slot, no degradation, no clamps.
func serverConfig(o *obs.Observer) serve.Config {
	return serve.Config{CacheBytes: 256 << 20, Timeout: 2 * time.Minute, Obs: o}
}

const (
	// clientTimeout bounds one request; a percentile that lands on a failed
	// request is reported as this value.
	clientTimeout = 10 * time.Second
	// timerSlack is Linux's default timer slack: a nanosleep wakes up to this
	// late, so the generator sleeps that much less than the gap to a due
	// time. (time.Sleep rounds to the runtime's ~1 ms timer granularity here,
	// far too coarse for a schedule of thousands of requests per second.)
	timerSlack = 50 * time.Microsecond
	// reqHeader carries a traced request's schedule index to the server-side
	// middleware, which parents its handler span on the client's span.
	reqHeader = "X-Bench-Req"
)

// Outcomes of one scheduled request.
const (
	outHit uint8 = iota
	outMiss
	outInflight
	outFailed // transport error, timeout, or a non-200 status
	outWrong  // a 200 whose body failed a correctness check
)

// shot is one completed scheduled request. Latency is measured from the
// request's due time, so a stalled generator or server charges the wait to
// every request queued behind it.
type shot struct {
	late    time.Duration // send − due
	lat     time.Duration // done − due
	svc     time.Duration // done − send
	outcome uint8
}

// client drives one server over loopback HTTP with at most conns keep-alive
// connections and no retries.
type client struct {
	w       *workload
	p       plan
	check   *checker
	bodies  [][]byte              // request JSON per key index
	serial  [][]byte              // the same with workers: 1, for setup builds
	keys    []string              // content key per key index
	canon   []mlvlsi.BuildRequest // canonical request per key index
	conns   int
	hotHits bool // every request after warm-up must be a cache hit

	mu         sync.Mutex
	firstWrong string
}

func newClient(w *workload, p plan, chk *checker) (*client, error) {
	c := &client{w: w, p: p, check: chk, conns: max(1, runtime.NumCPU()), hotHits: w.name == "hot-hits"}
	for _, req := range p.keys {
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		canon, err := req.Canonical()
		if err != nil {
			return nil, err
		}
		one := req
		one.Workers = 1
		sb, err := json.Marshal(one)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, b)
		c.serial = append(c.serial, sb)
		c.keys = append(c.keys, canon.Key())
		c.canon = append(c.canon, canon)
	}
	return c, nil
}

func (c *client) wrong(format string, args ...any) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstWrong == "" {
		c.firstWrong = fmt.Sprintf(format, args...)
	}
	return outWrong
}

// response is the union of the /v1/build and /v1/verify success bodies.
type response struct {
	Key        string       `json:"key"`
	Cache      string       `json:"cache"`
	Stats      mlvlsi.Stats `json:"stats"`
	Legal      bool         `json:"legal"`
	Violations []string     `json:"violations"`
}

// post sends key k to path and checks the answer: the content key must be
// the client-side req.Key(), build stats must pass the checker, and a
// verify must come back legal with no violations.
func (c *client) post(hc *http.Client, base, path string, body []byte, k, id int, buf *bytes.Buffer) uint8 {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return outFailed
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return outFailed
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return outFailed
	}
	var r response
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return c.wrong("undecodable %s response: %v", path, err)
	}
	if r.Key != c.keys[k] {
		return c.wrong("%s answered key %s, want %s", path, r.Key, c.keys[k])
	}
	if path == "/v1/verify" {
		if !r.Legal || len(r.Violations) > 0 {
			return c.wrong("verify of %s: legal=%v, %d violations", r.Key, r.Legal, len(r.Violations))
		}
	} else if err := c.check.stats(r.Key, r.Stats); err != nil {
		return c.wrong("%v", err)
	}
	switch r.Cache {
	case "HIT":
		return outHit
	case "MISS":
		return outMiss
	case "INFLIGHT":
		return outInflight
	}
	return c.wrong("%s answered cache outcome %q", path, r.Cache)
}

// sleepUntil blocks until t (less the timer slack) with nanosleep, retrying
// after signal interruptions.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - timerSlack
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// fire runs one phase open loop: request i is due at i/rate after the phase
// starts, whichever connection is free sends it, and a late send still
// counts from its due time. tr, when non-nil, wraps the requests of its
// traced slices in client "request" spans joined to the server's handler
// spans.
func (c *client) fire(hc *http.Client, base string, ph phase, tr *tracer) []shot {
	out := make([]shot, ph.hi-ph.lo)
	var next atomic.Int64
	start := time.Now()
	par.Chunks(c.conns, c.conns, func(_, _, _ int) {
		var buf bytes.Buffer
		for {
			i := int(next.Add(1) - 1)
			if i >= len(out) {
				return
			}
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / ph.rate))
			sleepUntil(due)
			sent := time.Now()
			id, sp := -1, (*obs.Span)(nil)
			if tr != nil {
				id, sp = tr.begin(ph.lo + i)
			}
			k := c.p.stream[ph.lo+i]
			o := c.post(hc, base, c.w.endpoint, c.bodies[k], k, id, &buf)
			done := time.Now()
			sp.End()
			if c.hotHits && o != outHit && o != outFailed && ph.name != "warmup" {
				o = c.wrong("hot-hits request %d answered %v, want a cache hit", ph.lo+i, o)
			}
			out[i] = shot{late: sent.Sub(due), lat: done.Sub(due), svc: done.Sub(sent), outcome: o}
		}
	})
	return out
}

// phaseStats summarizes one phase. Latency percentiles count failed and
// wrong requests as +Inf (reported as the client timeout).
type phaseStats struct {
	Name         string  `json:"name"`
	Rate         float64 `json:"rate"`
	Samples      int     `json:"samples"`
	Failed       int     `json:"failed"`
	Wrong        int     `json:"wrong"`
	Misses       int     `json:"misses"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	P99ms        float64 `json:"p99_ms"` // slicedP99
	MissP50ms    float64 `json:"miss_p50_ms"`
	LateP99ms    float64 `json:"late_p99_ms"`
	LateGrowthMs float64 `json:"late_growth_ms"`
	// SpanS is the phase's makespan: from its start to its last response.
	// Served is the rate the server answered at, Samples / SpanS.
	SpanS  float64 `json:"span_s"`
	Served float64 `json:"served_rps"`
	Pass   bool    `json:"pass"`
}

// summarize computes a phase's statistics. A phase passes when nothing
// failed, its p95 meets the SLO, and lateness did not grow across it by
// more than half the SLO — a growing backlog means the rate is not
// sustainable even if the percentiles still look fine.
func summarize(ph phase, shots []shot, slo time.Duration) phaseStats {
	st := phaseStats{Name: ph.name, Rate: ph.rate, Samples: len(shots)}
	lat := make([]float64, len(shots))
	late := make([]float64, len(shots))
	var miss []float64
	for i, s := range shots {
		lat[i] = ms(s.lat)
		late[i] = ms(s.late)
		st.SpanS = math.Max(st.SpanS, float64(i)/ph.rate+s.lat.Seconds())
		switch s.outcome {
		case outFailed:
			st.Failed++
			lat[i] = math.Inf(1)
		case outWrong:
			st.Wrong++
			lat[i] = math.Inf(1)
		case outMiss:
			st.Misses++
			miss = append(miss, lat[i])
		}
	}
	q := len(shots) / 4
	if q > 0 {
		st.LateGrowthMs = pct(append([]float64(nil), late[len(late)-q:]...), 50) -
			pct(append([]float64(nil), late[:q]...), 50)
	}
	timeout := ms(clientTimeout)
	st.P99ms = finite(slicedP99(lat), timeout) // before pct sorts lat
	st.P50ms = finite(pct(lat, 50), timeout)
	st.P95ms = finite(pct(lat, 95), timeout)
	st.MissP50ms = pct(miss, 50)
	st.LateP99ms = pct(late, 99)
	if st.SpanS > 0 {
		st.Served = float64(len(shots)) / st.SpanS
	}
	st.Pass = st.Failed+st.Wrong == 0 && st.P95ms <= ms(slo) && st.LateGrowthMs <= ms(slo)/2
	return st
}

// tracer traces the nominal window's requests in alternate half-second
// slices: a traced request gets a client "request" span, joined by schedule
// index to a server-side "handler" span, and both durations are recorded
// for the transport split. The untraced slices of the same window are the
// baseline for the tracing overhead, so drift in the machine cancels out.
type tracer struct {
	o      *obs.Observer
	lo, hi int // the window's schedule indices
	slice  int // requests per half-second slice
	spans  []atomic.Pointer[obs.Span]
	hdl    []atomic.Int64 // handler ns per traced request
}

func newTracer(o *obs.Observer, ph phase) *tracer {
	n := ph.hi - ph.lo
	return &tracer{o: o, lo: ph.lo, hi: ph.hi, slice: max(1, int(ph.rate/2)),
		spans: make([]atomic.Pointer[obs.Span], n), hdl: make([]atomic.Int64, n)}
}

// traced reports whether schedule index i falls in a traced slice.
func (t *tracer) traced(i int) bool {
	return i >= t.lo && i < t.hi && (i-t.lo)/t.slice%2 == 0
}

// begin opens the client span of schedule index i when it is traced.
func (t *tracer) begin(i int) (int, *obs.Span) {
	if !t.traced(i) {
		return -1, nil
	}
	sp := t.o.StartSpan("request").SetAttr("req", int64(i))
	t.spans[i-t.lo].Store(sp)
	return i, sp
}

// wrap is the server-side middleware around Server.Handler(): a request
// carrying a traced index gets a "handler" span under its client span. The
// recorded handler time excludes the span's own bookkeeping.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil || !t.traced(i) {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.spans[i-t.lo].Load().Child("handler")
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		sp.End()
		t.hdl[i-t.lo].Store(int64(d))
	})
}

// servingPass is one server lifetime's worth of measurement: the setup
// repetitions, the executed phases, and (traced) the per-layer inputs.
type servingPass struct {
	setup     []float64
	setupMiss map[int][]float64 // ms per setup build, by key index
	phases    []phaseStats
	nominal   []shot
}

// withServer starts a fresh in-process server on a loopback port, runs fn
// against it, and shuts it down. The accept loop and fn are the two shards
// of one par.Chunks call, so both are joined before withServer returns.
func withServer(o *obs.Observer, mw func(http.Handler) http.Handler, fn func(base string) error) error {
	srv := serve.New(serverConfig(o))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := srv.Handler()
	if mw != nil {
		h = mw(h)
	}
	hs := &http.Server{Handler: h}
	var serveErr, fnErr error
	par.Chunks(2, 2, func(shard, _, _ int) {
		if shard == 0 {
			if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				serveErr = err
			}
			return
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
		}()
		fnErr = fn("http://" + ln.Addr().String())
	})
	return errors.Join(fnErr, serveErr)
}

// newHTTPClient caps the pool at conns keep-alive connections; POST is not
// replayable, so net/http never retries and every failure reaches a shot.
func (c *client) newHTTPClient() *http.Client {
	return &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
		MaxIdleConns: c.conns, MaxIdleConnsPerHost: c.conns, MaxConnsPerHost: c.conns,
		DisableCompression: true,
	}}
}

// prewarm builds the plan's setup keys through /v1/build, one at a time,
// and adds the latency in ms of each build that missed the cache to miss,
// by key index (a key that repeats in the setup set hits). Each asks for a
// serial build (workers is an execution knob outside the content key), so
// set-up time is compute-bound: it does not swing with the host's
// cross-CPU wake-up cost the way parallel fan-outs do.
func (c *client) prewarm(hc *http.Client, base string, miss map[int][]float64) error {
	var buf bytes.Buffer
	for _, k := range c.p.prewarm {
		t := time.Now()
		switch o := c.post(hc, base, "/v1/build", c.serial[k], k, -1, &buf); o {
		case outMiss:
			miss[k] = append(miss[k], ms(time.Since(t)))
		case outHit:
		case outWrong:
			return fmt.Errorf("prewarm: %s", c.firstWrong)
		default:
			return fmt.Errorf("prewarm of key %s failed (outcome %d)", c.keys[k], o)
		}
	}
	return nil
}

// passHooks lets a traced pass observe the nominal window (before/after)
// and run its replay between the nominal window and the ladder.
type passHooks struct {
	tr     *tracer
	before func()
	after  func() error
}

// runPass sets up a server repeatedly, each a fresh server timed from its
// construction through the prewarm builds, and runs the schedule's phases
// against the middle one before its later repetitions start. reps gives the
// number of repetitions from the first one's time. Warm-up must not fail;
// the ladder stops at its first failing step.
func (c *client) runPass(sched []phase, o *obs.Observer, reps func(first float64) int, hooks passHooks) (*servingPass, error) {
	res := &servingPass{setupMiss: make(map[int][]float64)}
	var mw func(http.Handler) http.Handler
	if hooks.tr != nil {
		mw = hooks.tr.wrap
	}
	n := 1 // until the first repetition has been timed
	for rep := 0; rep < n; rep++ {
		runtime.GC() // every repetition starts from the same heap, untimed
		start := time.Now()
		hc := c.newHTTPClient()
		err := withServer(o, mw, func(base string) error {
			if err := c.prewarm(hc, base, res.setupMiss); err != nil {
				return err
			}
			res.setup = append(res.setup, time.Since(start).Seconds())
			if rep == 0 {
				n = reps(res.setup[0])
			}
			if rep != n/2 {
				return nil
			}
			return c.runPhases(hc, base, sched, res, hooks)
		})
		hc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (c *client) runPhases(hc *http.Client, base string, sched []phase, res *servingPass, hooks passHooks) error {
	for _, ph := range sched {
		nominal := ph.name == "nominal"
		var tr *tracer
		if nominal {
			tr = hooks.tr
			if hooks.before != nil {
				hooks.before()
			}
		}
		shots := c.fire(hc, base, ph, tr)
		st := summarize(ph, shots, c.w.slo)
		res.phases = append(res.phases, st)
		if nominal {
			res.nominal = shots
		}
		switch {
		case ph.name == "warmup" && st.Failed > 0:
			return fmt.Errorf("%d of %d warm-up requests failed", st.Failed, st.Samples)
		case nominal && hooks.after != nil:
			if err := hooks.after(); err != nil {
				return err
			}
		case !nominal && ph.name != "warmup" && !st.Pass:
			return nil // the ladder stops at its first failing step
		}
	}
	return nil
}

// replayStats is the stage-by-stage replay of nominal-window requests on
// one goroutine, through the same public calls the handler makes.
type replayStats struct {
	decode, key, cacheHit, stats, encode []float64 // µs per call
	stageSum                             []float64 // µs per request
	builds                               int
	mallocs, allocBytes                  uint64
	occupancyPeak                        float64 // bytes
	start, end                           time.Time
	counters                             obs.Metrics // deltas over the replay
}

// replay runs the first n requests of the nominal window through JSON
// decode → Canonical → Key → Cache.GetKeyed (misses build with
// BuildSpecWith on one reused scratch) → Stats and MemBytes → VerifyLayout
// (verify workload) → JSON encode, timing each call. Its cache has the
// server's budget and is first brought to the state the window started
// from, by the same prewarm and warm-up requests, unobserved; so the replay
// hits and misses as the window did, and the build and verify spans and
// work counters reported to o belong to exactly these n requests.
func replay(o *obs.Observer, c *client, sched []phase, n int) (*replayStats, error) {
	warm, ph := sched[0], sched[1]
	n = min(n, ph.hi-ph.lo)
	ctx := context.Background()
	cache := serve.NewCache(serverConfig(nil).CacheBytes, o)
	scratch := mlvlsi.NewBuildScratch()
	unobserved := func(ctx context.Context, r mlvlsi.BuildRequest) (*mlvlsi.Layout, error) {
		return mlvlsi.BuildSpecWith(ctx, r, nil, scratch)
	}
	for _, k := range append(append([]int(nil), c.p.prewarm...), c.p.stream[warm.lo:warm.hi]...) {
		if _, _, err := cache.GetKeyed(ctx, c.keys[k], c.canon[k], unobserved); err != nil {
			return nil, err
		}
	}
	rs := &replayStats{start: time.Now()}
	before := o.Snapshot()
	var cacheHits []float64
	for i := 0; i < n; i++ {
		body := c.bodies[c.p.stream[ph.lo+i]]
		t0 := time.Now()
		var req mlvlsi.BuildRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		t1 := time.Now()
		canon, err := req.Canonical()
		if err != nil {
			return nil, err
		}
		key := canon.Key()
		t2 := time.Now()
		var buildDur time.Duration
		built := false
		res, _, err := cache.GetKeyed(ctx, key, canon, func(ctx context.Context, r mlvlsi.BuildRequest) (*mlvlsi.Layout, error) {
			built = true
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			tb := time.Now()
			lay, err := mlvlsi.BuildSpecWith(ctx, r, o, scratch)
			buildDur = time.Since(tb)
			runtime.ReadMemStats(&m1)
			rs.mallocs += m1.Mallocs - m0.Mallocs
			rs.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			return lay, err
		})
		t3 := time.Now()
		if err != nil {
			return nil, err
		}
		stage := us(t1.Sub(t0)) + us(t2.Sub(t1))
		if built {
			rs.builds++
			ts := time.Now()
			_ = res.Layout.Stats()
			_ = res.Layout.MemBytes()
			sd := time.Since(ts)
			rs.stats = append(rs.stats, us(sd))
			stage += us(buildDur) + us(sd)
		} else {
			cacheHits = append(cacheHits, us(t3.Sub(t2)))
			stage += us(t3.Sub(t2))
		}
		var body2 any = response{Key: key, Cache: "HIT", Stats: res.Stats}
		if c.w.endpoint == "/v1/verify" {
			m0 := o.Snapshot()
			opts := canon.Options()
			opts.Context, opts.Observer = ctx, o
			tv := time.Now()
			vs, err := mlvlsi.VerifyLayout(res.Layout, opts)
			stage += us(time.Since(tv))
			if err != nil || len(vs) > 0 {
				return nil, fmt.Errorf("replayed verify of %s: %d violations, err %v", key, len(vs), err)
			}
			rs.occupancyPeak = math.Max(rs.occupancyPeak, occupancyBytes(m0, o.Snapshot()))
			body2 = struct {
				Key   string `json:"key"`
				Cache string `json:"cache"`
				Legal bool   `json:"legal"`
			}{key, "HIT", true}
		}
		te := time.Now()
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(body2); err != nil {
			return nil, err
		}
		ed := time.Since(te)
		stage += us(ed)
		rs.decode = append(rs.decode, us(t1.Sub(t0)))
		rs.key = append(rs.key, us(t2.Sub(t1)))
		rs.encode = append(rs.encode, us(ed))
		rs.stageSum = append(rs.stageSum, stage)
	}
	// The first lookup of every key misses; the median over hits is the
	// lookup cost the handler pays on a hit.
	rs.cacheHit = cacheHits
	rs.end = time.Now()
	rs.counters = delta(before, o.Snapshot())
	return rs, nil
}

// occupancyBytes is the verifier's occupancy working set for one check
// between two counter snapshots: the tiled rung's peak tile bytes, or the
// dense bitset (cells_allocated bits) times the worker count.
func occupancyBytes(a, b obs.Metrics) float64 {
	d := delta(a, b)
	if d.Get(obs.TiledChecks) > 0 {
		return float64(b.Get(obs.TileBytesPeak))
	}
	return float64(d.Get(obs.CellsAllocated)) / 8 * float64(max(1, b.Get(obs.WorkerCount)))
}

// delta subtracts two counter snapshots (gauges keep their later value).
func delta(a, b obs.Metrics) obs.Metrics {
	var d obs.Metrics
	for i := range d.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	for _, g := range []obs.Counter{obs.CacheBytes, obs.QueueDepth, obs.QueueMaxDepth,
		obs.BudgetHeadroom, obs.WorkerCount, obs.ScratchBytes, obs.TileBytesPeak} {
		d.Counts[g] = b.Counts[g]
	}
	return d
}

// maxRPS is the rate the server answered at in the highest phase of the
// nominal window and the ladder that passed, stopping at the first that
// failed; 0 when the nominal window itself failed.
func maxRPS(phases []phaseStats) float64 {
	served := 0.0
	for _, st := range phases {
		if !st.Pass {
			break
		}
		served = st.Served
	}
	return served
}

// runServing runs a serving workload: setup, warm-up, the nominal window
// and the ladder against a fresh layoutd. A traced run attaches the
// observer to the server, traces alternate slices of the nominal window,
// and replays part of it stage by stage before the ladder.
func runServing(w *workload, c runConfig, rec *record) error {
	sched := schedule(w, c.seconds, c.quick)
	p := makePlan(w, c.seed, sched[len(sched)-1].hi, c.quick)
	chk, err := newChecker(c.seed)
	if err != nil {
		return err
	}
	cl, err := newClient(w, p, chk)
	if err != nil {
		return err
	}
	var (
		ts    *traceState
		tr    *tracer
		win   windowObs
		rs    *replayStats
		hooks passHooks
	)
	nominal := sched[1]
	if c.traced {
		ts = newTraceState()
		tr = newTracer(ts.o, nominal)
		var c0 obs.Metrics
		hooks = passHooks{tr: tr,
			before: func() { c0, win.rt0 = ts.o.Snapshot(), readRuntime() },
			after: func() error {
				win.counters, win.rt1 = delta(c0, ts.o.Snapshot()), readRuntime()
				var err error
				rs, err = replay(ts.o, cl, sched, w.replay)
				return err
			},
		}
	}
	pass, err := cl.runPass(sched, ts.observer(), c.setupReps, hooks)
	if err != nil {
		return err
	}
	rec.SetupRuns = pass.setup
	rec.Phases = pass.phases
	rec.Samples = make(map[string]int)
	for _, st := range pass.phases {
		rec.Samples[st.Name] = st.Samples
	}
	nom := pass.phases[1]
	rec.Attempted, rec.Failed = nom.Samples, nom.Failed+nom.Wrong
	rec.LateP99ms = nom.LateP99ms
	rec.Correct = cl.firstWrong == ""
	if !rec.Correct {
		rec.Notes = append(rec.Notes, "first mismatch: "+cl.firstWrong)
	}
	if nom.LateP99ms > ms(w.slo) {
		rec.Valid = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("invalid: nominal lateness p99 %.2f ms exceeds the %v SLO; the nominal rate is mis-sized for this machine", nom.LateP99ms, w.slo))
	}
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	rec.setMetric("setup_s", median(pass.setup))
	rec.setMetric("peak_rss_mb", rss)
	rec.setMetric("latency_p50_ms", nom.P50ms)
	rec.setMetric("latency_p99_ms", nom.P99ms)
	rec.setMetric("error_ratio", float64(nom.Failed+nom.Wrong)/float64(max(1, nom.Samples)))
	// Only churn misses in its window; the other serving workloads' cold
	// builds are their setup builds, timed through the same handler.
	if w.name == "churn" {
		rec.setMetric("miss_p50_ms", nom.MissP50ms)
	} else {
		rec.setMetric("miss_p50_ms", medianOfMedians(pass.setupMiss))
	}
	rec.setMetric("max_rps", maxRPS(pass.phases[1:]))
	rec.setMetric("run_s", nom.SpanS)
	if !c.traced {
		return nil
	}
	// Traced and untraced slices alternate through the nominal window; the
	// replay covers the window's first requests, index for index, and the
	// coverage compares their replayed stage time with their handler time.
	var stage, handler float64
	var tracedLat, plainLat []float64
	for i, s := range pass.nominal {
		lat := ms(s.lat)
		if s.outcome == outFailed || s.outcome == outWrong {
			lat = math.Inf(1)
		}
		if !tr.traced(nominal.lo + i) {
			plainLat = append(plainLat, lat)
			continue
		}
		tracedLat = append(tracedLat, lat)
		h := time.Duration(tr.hdl[i].Load())
		if h <= 0 {
			continue
		}
		win.handler = append(win.handler, us(h))
		win.transport = append(win.transport, us(s.svc-h))
		if i < len(rs.stageSum) {
			stage += rs.stageSum[i]
			handler += us(h)
		}
	}
	win.samples, win.lateP99ms = nom.Samples, nom.LateP99ms
	lv := layerValues(win, rs, ts.spans(rs))
	if base := pct(plainLat, 50); base > 0 && !math.IsInf(base, 0) {
		lv["trace.overhead_p50"] = pct(tracedLat, 50)/base - 1
	}
	if handler > 0 {
		lv["trace.coverage"] = stage / handler
	}
	rec.setLayers(lv)
	return ts.finish(c.traceOut)
}
