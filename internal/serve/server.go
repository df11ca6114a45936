package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"mlvlsi"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
	"mlvlsi/internal/resilience"
	"mlvlsi/internal/stack"
)

// Config tunes the server. Every field has a serving-safe zero value.
type Config struct {
	// CacheBytes is the build cache's byte budget (Layout.MemBytes
	// accounting); <= 0 means unlimited retention.
	CacheBytes int64
	// MaxCells is the admission ceiling: every request's cell budget is
	// clamped to it (a request asking for more, or for no budget at all,
	// gets this one). 0 admits everything.
	MaxCells int
	// Workers clamps per-request build/verify fan-out; 0 leaves requests at
	// their own setting (which itself degrades to GOMAXPROCS).
	Workers int
	// VerifyMemBytes caps each request's verifier working set: requests
	// asking for more (or for no cap at all) are clamped to it, engaging
	// the tiled streaming rung when the dense bit-grid would not fit (see
	// Options.VerifyMemBytes). 0 leaves requests at their own setting.
	VerifyMemBytes int
	// Timeout is the per-request deadline, layered over the client's own
	// disconnect cancellation. 0 means no server-side deadline.
	Timeout time.Duration
	// MaxConcurrent bounds builds/verifies running at once; <= 0 means the
	// available parallelism (see resilience.QueueConfig).
	MaxConcurrent int
	// MaxQueue bounds admission waiters beyond the concurrent slots; 0 means
	// 4x the resolved MaxConcurrent, negative means no waiting at all.
	MaxQueue int
	// FamilyLimits caps concurrent builds per family name under the global
	// MaxConcurrent; absent families are uncapped.
	FamilyLimits map[string]int
	// Degrade enables graceful degradation: a build shed by admission (or
	// rejected by the cell budget) is answered with a retained coarser layout
	// of the same network when one exists, marked degraded, instead of the
	// error.
	Degrade bool
	// Obs receives cache counters and build/verify spans. Nil gets a
	// fresh sink-less observer so /metricsz always has counters to report.
	Obs *obs.Observer
	// Log receives recovered-panic stacks; nil means os.Stderr.
	Log io.Writer
}

// Server serves build/verify/render requests over the registry engines with
// a content-addressed cache and bounded admission in front. Create one with
// New; it is an http.Handler factory (Handler) plus a graceful Serve loop.
type Server struct {
	cfg   Config
	obs   *obs.Observer
	cache *Cache
	queue *resilience.Queue
	mux   *http.ServeMux
	log   io.Writer
	// buildFn runs one cache miss and verifyFn one certification; tests
	// substitute failing or panicking engines here.
	buildFn  BuildFunc
	verifyFn VerifyFunc
	// scratches pools arena build scratches, one slot per admitted
	// concurrent build (sized by Config.Workers): cache misses draw a warm
	// scratch and return it after the build. Take never blocks — an empty
	// pool hands out a fresh scratch — and extras beyond the pool size are
	// dropped, so a burst can only cost allocations, never progress.
	scratches chan *mlvlsi.BuildScratch
}

// New creates a server with its cache, admission queue, and routes installed.
func New(cfg Config) *Server {
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Log == nil {
		cfg.Log = os.Stderr
	}
	s := &Server{
		cfg:   cfg,
		obs:   cfg.Obs,
		cache: NewCache(cfg.CacheBytes, cfg.Obs),
		queue: resilience.NewQueue(resilience.QueueConfig{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxQueue:      cfg.MaxQueue,
			FamilyLimits:  cfg.FamilyLimits,
			Obs:           cfg.Obs,
		}),
		mux:       http.NewServeMux(),
		log:       cfg.Log,
		scratches: make(chan *mlvlsi.BuildScratch, par.Workers(cfg.Workers)),
	}
	s.buildFn = func(ctx context.Context, req mlvlsi.BuildRequest) (*mlvlsi.Layout, error) {
		scratch := s.takeScratch()
		defer s.putScratch(scratch)
		return mlvlsi.BuildSpecWith(ctx, req, s.obs, scratch)
	}
	s.verifyFn = func(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		o := req.Options()
		o.Context = ctx
		o.Observer = s.obs
		return mlvlsi.VerifyLayout(lay, o)
	}
	s.mux.HandleFunc("/v1/build", s.handleBuild)
	s.mux.HandleFunc("/v1/build_batch", s.handleBuildBatch)
	s.mux.HandleFunc("/v1/verify", s.handleVerify)
	s.mux.HandleFunc("/v1/svg", s.handleSVG)
	s.mux.HandleFunc("/v1/families", s.handleFamilies)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/livez", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/metricsz", s.handleMetrics)
	return s
}

// Handler returns the server's route table wrapped in the panic-recovery
// middleware: a handler panic becomes a 500 "internal" envelope (when no
// response has started), a panics_recovered count, and a logged stack —
// never a torn-down server.
func (s *Server) Handler() http.Handler { return s.recovered(s.mux) }

// recovered is the outermost middleware. http.ErrAbortHandler passes through
// (it is net/http's own control flow for aborting a response).
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &startedWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.obs.Add(obs.PanicsRecovered, 1)
			fmt.Fprintf(s.log, "serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if !rw.started {
				writeJSON(rw, http.StatusInternalServerError, errorBody{Error: errorInfo{
					Status: http.StatusInternalServerError, Kind: "internal",
					Message: fmt.Sprintf("panic: %v", v),
				}})
			}
		}()
		h.ServeHTTP(rw, r)
	})
}

// startedWriter tracks whether the response has started, so the recovery
// middleware knows if a clean error envelope is still possible.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *startedWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// Cache exposes the build cache (tests and the replay driver read its
// occupancy).
func (s *Server) Cache() *Cache { return s.cache }

// Queue exposes the admission queue (tests assert its bounds; layoutd reads
// drain state).
func (s *Server) Queue() *resilience.Queue { return s.queue }

// BeginDrain flips the server into drain mode: readiness goes false and
// every new build is shed with ReasonDraining, while in-flight work and
// already-queued waiters complete normally. Callers flip this on SIGTERM,
// give the fronting balancer a beat to observe /readyz, then cancel Serve's
// context for the graceful shutdown.
func (s *Server) BeginDrain() { s.queue.SetDraining(true) }

// Serve accepts connections on ln until ctx is done, then shuts down
// gracefully (in-flight requests get five seconds to drain). A nil ctx
// serves until the listener closes. The accept loop runs on a goroutine
// whose lifetime net/http owns — Shutdown joins it — which is why the
// repolint goroutine analyzer admits it (see internal/analyze).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if ctx == nil {
		return serveResult(<-errc)
	}
	select {
	case err := <-errc:
		return serveResult(err)
	case <-ctx.Done():
		// Stop admitting new builds before tearing down connections, so
		// requests racing the shutdown get a typed shed instead of a reset.
		s.BeginDrain()
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(shctx)
		<-errc // always http.ErrServerClosed after Shutdown
		return err
	}
}

// ListenAndServe binds addr and serves until ctx is done. The ready
// callback, when non-nil, receives the bound address before serving starts
// (addr ":0" binds an ephemeral port).
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return s.Serve(ctx, ln)
}

// serveResult normalizes http.Server's sentinel: a closed listener is a
// clean exit, not an error.
func serveResult(err error) error {
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// The error envelope. Every failure leaves the server as one JSON shape
// with a stable kind and the typed error's fields, so clients switch on
// kind/status instead of parsing prose:
//
//	{"error":{"status":400,"kind":"param","message":"...","family":"kary","param":"k"}}
//
// Mapping: *ParamError and *SideError → 400 param, *BudgetError → 413
// budget, Violation → 422 violation, *OverloadError → 429/503 overload
// (with reason and retry_after_ms), *BreakerOpenError → 503 overload,
// *StatusError → 502 upstream, *PanicError → 500 internal (explicitly,
// so the catch-all below stays for truly unknown errors), cancellation/
// deadline → 504 canceled, malformed requests → 400 request, anything
// else → 500 internal. The envelope analyzer (internal/analyze) fails the
// lint if a typed error is ever defined without a case here, and the
// audit in envelope_test.go proves the catch-all unreachable for the
// engines' typed rejections.
type errorInfo struct {
	Status       int    `json:"status"`
	Kind         string `json:"kind"`
	Message      string `json:"message"`
	Family       string `json:"family,omitempty"`
	Param        string `json:"param,omitempty"`
	Cells        int    `json:"cells,omitempty"`
	Budget       int    `json:"budget,omitempty"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type errorBody struct {
	Error errorInfo `json:"error"`
}

// envelope maps an error onto the wire envelope.
func envelope(err error) errorInfo {
	var pe *mlvlsi.ParamError
	var be *mlvlsi.BudgetError
	var se *stack.SideError
	var vio mlvlsi.Violation
	var oe *resilience.OverloadError
	var boe *resilience.BreakerOpenError
	var ste *resilience.StatusError
	var pa *mlvlsi.PanicError
	switch {
	case errors.As(err, &pe):
		return errorInfo{Status: http.StatusBadRequest, Kind: "param",
			Message: pe.Error(), Family: pe.Family, Param: pe.Param}
	case errors.As(err, &se):
		// The stacked engines convert SideError to ParamError at the API
		// boundary (stackErr); this case keeps a raw one equally typed.
		return errorInfo{Status: http.StatusBadRequest, Kind: "param",
			Message: se.Error(), Family: se.Name, Param: "NodeSide"}
	case errors.As(err, &be):
		return errorInfo{Status: http.StatusRequestEntityTooLarge, Kind: "budget",
			Message: be.Error(), Family: be.Name, Cells: be.Cells, Budget: be.Budget}
	case errors.As(err, &vio):
		// An illegal layout surfacing as an error (e.g. a joined
		// VerifyFolded result) is a rejected input, not a server fault.
		return errorInfo{Status: http.StatusUnprocessableEntity, Kind: "violation",
			Message: vio.Error()}
	case errors.As(err, &oe):
		return errorInfo{Status: oe.Status(), Kind: "overload", Message: oe.Error(),
			Reason: oe.Reason.String(), RetryAfterMS: retryAfterMS(oe.RetryAfter)}
	case errors.As(err, &boe):
		return errorInfo{Status: http.StatusServiceUnavailable, Kind: "overload",
			Message: boe.Error(), Reason: "breaker_open", RetryAfterMS: retryAfterMS(boe.RetryAfter)}
	case errors.As(err, &ste):
		// Client-side resilience errors can only reach an envelope through
		// a proxying deployment; 502 keeps the upstream status visible.
		return errorInfo{Status: http.StatusBadGateway, Kind: "upstream", Message: ste.Error()}
	case errors.As(err, &pa):
		return errorInfo{Status: http.StatusInternalServerError, Kind: "internal", Message: pa.Error()}
	case errors.Is(err, grid.ErrOutsideTiling):
		// A stale incremental re-verify (the wire set outgrew its tiling
		// partition) is a conflicting client precondition, not a server
		// fault: the client re-tiles and retries with a full verify.
		return errorInfo{Status: http.StatusConflict, Kind: "stale_tiling", Message: err.Error()}
	case errors.Is(err, mlvlsi.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return errorInfo{Status: http.StatusGatewayTimeout, Kind: "canceled", Message: err.Error()}
	}
	return errorInfo{Status: http.StatusInternalServerError, Kind: "internal", Message: err.Error()}
}

// retryAfterMS rounds a shed's wait hint up to whole milliseconds, flooring
// at one so an "overload" envelope always carries a usable hint even before
// the queue's service-time estimate has warmed up.
func retryAfterMS(d time.Duration) int64 {
	ms := (d + time.Millisecond - 1).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

func writeError(w http.ResponseWriter, err error) {
	info := envelope(err)
	if info.RetryAfterMS > 0 {
		// Standard Retry-After is whole seconds, too coarse for millisecond
		// sheds, so the precise hint rides a custom header the resilience
		// client prefers.
		w.Header().Set("Retry-After", strconv.FormatInt(info.RetryAfterMS/1000, 10))
		w.Header().Set(resilience.RetryAfterMillisHeader, strconv.FormatInt(info.RetryAfterMS, 10))
	}
	writeJSON(w, info.Status, errorBody{Error: info})
}

// badRequest reports a malformed request (undecodable body, wrong method)
// without consulting the typed mapping.
func badRequest(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: errorInfo{
		Status: status, Kind: "request", Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// Encoding errors past WriteHeader can only be client disconnects;
	// nothing useful to do with them.
	_ = enc.Encode(v)
}

// requestContext layers the server's deadline over the client's disconnect
// cancellation.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(ctx, s.cfg.Timeout)
	}
	return context.WithCancel(ctx)
}

// takeScratch draws a warm scratch from the pool, or makes a fresh one when
// every pooled scratch is in use — builds never wait on scratch
// availability.
func (s *Server) takeScratch() *mlvlsi.BuildScratch {
	select {
	case sc := <-s.scratches:
		return sc
	default:
		return mlvlsi.NewBuildScratch()
	}
}

// putScratch returns a scratch for reuse, dropping it when the pool is
// already full (the burst that created it has passed).
func (s *Server) putScratch(sc *mlvlsi.BuildScratch) {
	select {
	case s.scratches <- sc:
	default:
	}
}

// build runs one request through the cache under its precomputed key.
// Admission happens inside the miss path: cache hits and in-flight waits
// never occupy a queue slot, only the request that actually runs an engine
// does.
func (s *Server) build(ctx context.Context, key string, req mlvlsi.BuildRequest) (*Result, Outcome, error) {
	return s.cache.GetKeyed(ctx, key, req, func(ctx context.Context, req mlvlsi.BuildRequest) (*mlvlsi.Layout, error) {
		release, err := s.queue.Acquire(ctx, req.Family.Name)
		if err != nil {
			return nil, err
		}
		defer release()
		return s.buildFn(ctx, req)
	})
}

// certify returns res's verdict through the cache's verdict slot. Like
// build, it admits inside the miss path: only the request that runs the
// verifier takes a slot, and it gives the slot back even if the verifier
// panics. Verdict hits and waits never occupy one.
func (s *Server) certify(ctx context.Context, req mlvlsi.BuildRequest, res *Result) (*Verdict, Outcome, error) {
	return s.cache.Certify(ctx, req, res, func(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		release, err := s.queue.Acquire(ctx, req.Family.Name)
		if err != nil {
			return nil, err
		}
		defer release()
		return s.verifyFn(ctx, req, lay)
	})
}

// certified is the "certified" field of a build answer: nil, so the field
// is omitted, until a verify has certified the key, then the verdict's
// legality. It points into the stored verdict, so reading it costs one
// atomic load and no allocation.
func certified(res *Result) *bool {
	if v := res.verdict.Load(); v != nil {
		return &v.Legal
	}
	return nil
}

// buildResponse is the /v1/build success body. Certified is present once a
// /v1/verify has certified the key. Degraded marks a response answered with
// a retained coarser layout (DegradedKey's slot) because the requested
// build was shed; Key always remains the key the client asked for.
type buildResponse struct {
	Key         string       `json:"key"`
	Cache       string       `json:"cache"`
	Stats       mlvlsi.Stats `json:"stats"`
	MemBytes    int64        `json:"mem_bytes"`
	Certified   *bool        `json:"certified,omitempty"`
	Degraded    bool         `json:"degraded,omitempty"`
	DegradedKey string       `json:"degraded_key,omitempty"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	req, key, ok := s.decode(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, out, err := s.build(ctx, key, req)
	if err != nil {
		if res, dkey, ok := s.degraded(req, err); ok {
			s.obs.Add(obs.DegradedServed, 1)
			w.Header().Set("X-Cache", "DEGRADED")
			w.Header().Set("X-Degraded", dkey)
			writeJSON(w, http.StatusOK, buildResponse{
				Key:         key,
				Cache:       "DEGRADED",
				Stats:       res.Stats,
				MemBytes:    res.MemBytes,
				Degraded:    true,
				DegradedKey: dkey,
			})
			return
		}
		writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", out.String())
	writeJSON(w, http.StatusOK, buildResponse{
		Key:       key,
		Cache:     out.String(),
		Stats:     res.Stats,
		MemBytes:  res.MemBytes,
		Certified: certified(res),
	})
}

// maxBatchItems bounds one /v1/build_batch request; bigger sweeps should be
// split so admission and deadlines see work at request granularity.
const maxBatchItems = 1024

// batchRequest is the /v1/build_batch request body.
type batchRequest struct {
	Requests []mlvlsi.BuildRequest `json:"requests"`
}

// batchItem is one /v1/build_batch item outcome: either the buildResponse
// fields or an error envelope, mirroring what /v1/build would have answered
// for the same request — batching changes amortization, never semantics.
type batchItem struct {
	Key       string       `json:"key,omitempty"`
	Cache     string       `json:"cache,omitempty"`
	Stats     mlvlsi.Stats `json:"stats,omitempty"`
	MemBytes  int64        `json:"mem_bytes,omitempty"`
	Certified *bool        `json:"certified,omitempty"`
	Error     *errorInfo   `json:"error,omitempty"`
}

// batchResponse is the /v1/build_batch success body; Results aligns with
// the request's Requests slice index for index.
type batchResponse struct {
	Results []batchItem `json:"results"`
}

// handleBuildBatch runs many builds in one request, sharing the batch's
// deadline. Each item goes through the same path as /v1/build — canonical
// key, cache with singleflight, admission on the miss, pooled scratch — and
// fails independently: one bad item yields one error envelope in its result
// slot, never a failed batch. Identical items therefore collapse onto one
// engine run, and distinct cache-miss items reuse the pool's warm scratches
// back to back.
func (s *Server) handleBuildBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		badRequest(w, http.StatusMethodNotAllowed, "%s needs POST with a JSON {\"requests\": [...]} body", r.URL.Path)
		return
	}
	var breq batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		badRequest(w, http.StatusBadRequest, "decoding batch request: %v", err)
		return
	}
	if len(breq.Requests) == 0 {
		badRequest(w, http.StatusBadRequest, "batch has no requests")
		return
	}
	if len(breq.Requests) > maxBatchItems {
		badRequest(w, http.StatusBadRequest, "batch has %d requests, limit is %d", len(breq.Requests), maxBatchItems)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	span := s.obs.StartSpan("batch")
	span.SetAttr("items", int64(len(breq.Requests)))
	defer span.End()
	resp := batchResponse{Results: make([]batchItem, len(breq.Requests))}
	for i, req := range breq.Requests {
		resp.Results[i] = s.batchOne(ctx, req)
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchOne runs one batch item, containing its failures — including panics,
// which for a single request the recovery middleware would map to a 500 —
// to the item's own error envelope.
func (s *Server) batchOne(ctx context.Context, req mlvlsi.BuildRequest) (item batchItem) {
	defer func() {
		if v := recover(); v != nil {
			s.obs.Add(obs.PanicsRecovered, 1)
			fmt.Fprintf(s.log, "serve: panic in batch item: %v\n%s", v, debug.Stack())
			item = batchItem{Error: &errorInfo{
				Status: http.StatusInternalServerError, Kind: "internal",
				Message: fmt.Sprintf("panic: %v", v),
			}}
		}
	}()
	canon, err := req.Canonical()
	if err != nil {
		info := envelope(err)
		return batchItem{Error: &info}
	}
	key := canon.Key()
	res, out, err := s.build(ctx, key, s.admit(canon))
	if err != nil {
		info := envelope(err)
		return batchItem{Key: key, Error: &info}
	}
	return batchItem{Key: key, Cache: out.String(), Stats: res.Stats, MemBytes: res.MemBytes, Certified: certified(res)}
}

// degraded decides whether a failed build can be answered with a retained
// coarser sibling: enabled by Config.Degrade, only for overload sheds and
// cell-budget rejections (never for bad parameters or cancellation), and
// only when a candidate is already in cache — degradation never builds.
func (s *Server) degraded(req mlvlsi.BuildRequest, err error) (*Result, string, bool) {
	if !s.cfg.Degrade {
		return nil, "", false
	}
	var oe *resilience.OverloadError
	var be *mlvlsi.BudgetError
	if !errors.As(err, &oe) && !errors.As(err, &be) {
		return nil, "", false
	}
	for _, cand := range degradedCandidates(req) {
		if res, ok := s.cache.Peek(cand.Key()); ok {
			return res, cand.Key(), true
		}
	}
	return nil, "", false
}

// degradedCandidates lists coarser variants of req, nearest first: halved
// layer counts down to two, then the default geometry (no node-side or
// folded-rows overrides). Same family and parameters throughout — a degraded
// answer is always the same network, laid out coarser.
func degradedCandidates(req mlvlsi.BuildRequest) []mlvlsi.BuildRequest {
	key := req.Key()
	var out []mlvlsi.BuildRequest
	push := func(cand mlvlsi.BuildRequest) {
		if cand.Key() == key {
			return
		}
		for _, prev := range out {
			if prev.Key() == cand.Key() {
				return
			}
		}
		out = append(out, cand)
	}
	for layers := req.Layers / 2; layers >= 2; layers /= 2 {
		cand := req
		cand.Layers = layers
		push(cand)
	}
	base := req
	base.Layers = 2
	base.NodeSide = 0
	base.FoldedRows = false
	push(base)
	return out
}

// verifyResponse is the /v1/verify success body. Cache is the layout's
// cache outcome and Verdict the certification's: MISS when this request ran
// the verifier, HIT when it read the verdict stored with the cached layout,
// INFLIGHT when it waited on a concurrent certification. Violations carry
// the verifier's formatted findings; Legal is their absence.
type verifyResponse struct {
	Key        string   `json:"key"`
	Cache      string   `json:"cache"`
	Verdict    string   `json:"verdict"`
	Legal      bool     `json:"legal"`
	Violations []string `json:"violations,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	req, key, ok := s.decode(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, out, err := s.build(ctx, key, req)
	if err != nil {
		writeError(w, err)
		return
	}
	v, vout, err := s.certify(ctx, req, res)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := verifyResponse{Key: key, Cache: out.String(), Verdict: vout.String(), Legal: v.Legal}
	for _, vio := range v.Violations {
		resp.Violations = append(resp.Violations, vio.Error())
	}
	w.Header().Set("X-Cache", out.String())
	w.Header().Set("X-Verdict", vout.String())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSVG(w http.ResponseWriter, r *http.Request) {
	req, key, ok := s.decode(w, r)
	if !ok {
		return
	}
	scale := 4
	if v := r.URL.Query().Get("scale"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 64 {
			badRequest(w, http.StatusBadRequest, "scale %q is not an integer in [1, 64]", v)
			return
		}
		scale = n
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, out, err := s.build(ctx, key, req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", out.String())
	w.Header().Set("Content-Type", "image/svg+xml")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(mlvlsi.RenderSVG(res.Layout, scale)))
}

func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		badRequest(w, http.StatusMethodNotAllowed, "%s is GET-only", r.URL.Path)
		return
	}
	writeJSON(w, http.StatusOK, mlvlsi.Families())
}

// handleHealth is liveness (/healthz and /livez): the process is up and the
// handler chain works. It stays 200 through drain — a draining server is
// alive, just not ready.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// readyResponse is the /readyz body; the status code carries the verdict
// (200 ready, 503 not), the body says why.
type readyResponse struct {
	Ready      bool `json:"ready"`
	Draining   bool `json:"draining"`
	Saturated  bool `json:"saturated"`
	QueueDepth int  `json:"queue_depth"`
	QueueBound int  `json:"queue_bound"`
}

// handleReady is readiness: whether this server should receive new traffic.
// It flips false while draining for shutdown and while the admission queue
// sits at its bound (new builds would only be shed).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := readyResponse{
		Draining:   s.queue.Draining(),
		Saturated:  s.queue.Saturated(),
		QueueDepth: s.queue.Depth(),
		QueueBound: s.queue.Bound(),
	}
	resp.Ready = !resp.Draining && !resp.Saturated
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		badRequest(w, http.StatusMethodNotAllowed, "%s is GET-only", r.URL.Path)
		return
	}
	m := s.obs.Snapshot()
	counters := make(map[string]int64, obs.NumCounters)
	for c := obs.Counter(0); int(c) < obs.NumCounters; c++ {
		counters[c.String()] = m.Get(c)
	}
	writeJSON(w, http.StatusOK, counters)
}

// decode reads, canonicalizes, and admission-clamps a request, returning it
// with its content key (computed once here; the handlers reuse it for the
// cache lookup and the response).
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (mlvlsi.BuildRequest, string, bool) {
	if r.Method != http.MethodPost {
		badRequest(w, http.StatusMethodNotAllowed, "%s needs POST with a JSON BuildRequest body", r.URL.Path)
		return mlvlsi.BuildRequest{}, "", false
	}
	var req mlvlsi.BuildRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		badRequest(w, http.StatusBadRequest, "decoding BuildRequest: %v", err)
		return mlvlsi.BuildRequest{}, "", false
	}
	canon, err := req.Canonical()
	if err != nil {
		writeError(w, err)
		return mlvlsi.BuildRequest{}, "", false
	}
	return s.admit(canon), canon.Key(), true
}

// admit applies the server's admission clamps: a request never runs wider
// than Config.Workers nor bigger than Config.MaxCells, whatever it asked
// for. Clamped fields are execution knobs, so the content key is unchanged.
func (s *Server) admit(req mlvlsi.BuildRequest) mlvlsi.BuildRequest {
	if s.cfg.Workers > 0 && (req.Workers == 0 || req.Workers > s.cfg.Workers) {
		req.Workers = s.cfg.Workers
	}
	if s.cfg.MaxCells > 0 && (req.MaxCells == 0 || req.MaxCells > s.cfg.MaxCells) {
		req.MaxCells = s.cfg.MaxCells
	}
	if s.cfg.VerifyMemBytes > 0 && (req.VerifyMemBytes <= 0 || req.VerifyMemBytes > s.cfg.VerifyMemBytes) {
		req.VerifyMemBytes = s.cfg.VerifyMemBytes
	}
	return req
}
