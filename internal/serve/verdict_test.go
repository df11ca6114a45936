package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlvlsi"
	"mlvlsi/internal/fault"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
	"mlvlsi/internal/resilience"
)

// realVerify is the production verifier without observation.
func realVerify(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
	o := req.Options()
	o.Context = ctx
	return mlvlsi.VerifyLayout(lay, o)
}

func verdictCounters(o *obs.Observer) (hits, misses int64) {
	m := o.Snapshot()
	return m.Get(obs.VerdictHits), m.Get(obs.VerdictMisses)
}

// tryPost sends body to path and returns the status, the X-Verdict header
// and the raw response body.
func tryPost(ts *httptest.Server, path, body string) (int, string, []byte, error) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Verdict"), raw, err
}

// postRaw is tryPost on the test's own goroutine, failing the test on a
// transport error.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string, []byte) {
	t.Helper()
	status, header, raw, err := tryPost(ts, path, body)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return status, header, raw
}

// verify posts one /v1/verify and decodes its success body, failing the
// test on any other status.
func verify(t *testing.T, ts *httptest.Server, body string) verifyResponse {
	t.Helper()
	status, header, raw := postRaw(t, ts, "/v1/verify", body)
	if status != http.StatusOK {
		t.Fatalf("verify %s = %d %s, want 200", body, status, raw)
	}
	var v verifyResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding verify response %q: %v", raw, err)
	}
	if header != v.Verdict {
		t.Fatalf("X-Verdict %q disagrees with body verdict %q", header, v.Verdict)
	}
	return v
}

// hyperBody is the request body of a hypercube key.
func hyperBody(n, layers int) string {
	return fmt.Sprintf(`{"family":{"name":"hypercube","params":{"n":%d}},"layers":%d}`, n, layers)
}

// TestVerifyCertifiesOncePerKey piles N concurrent first verifies onto one
// cached key, then sends M more one after another, and asserts that the
// verifier ran exactly once and exactly one admission slot was taken. With
// one slot and no queue, any second acquisition while the leader holds the
// slot would be shed; the M sequential verifies run while draining, where
// any acquisition at all would be shed.
func TestVerifyCertifiesOncePerKey(t *testing.T) {
	const concurrent, sequential = 8, 5
	o := obs.New()
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, Obs: o})
	var runs, slotsHeld atomic.Int32
	s.verifyFn = func(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		runs.Add(1)
		slotsHeld.Store(int32(s.queue.Active()))
		// A slow certification holds the singleflight window open so every
		// concurrent verify lands in it.
		time.Sleep(100 * time.Millisecond)
		return realVerify(ctx, req, lay)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := hyperBody(5, 4)
	if status, _, raw := postRaw(t, ts, "/v1/build", body); status != http.StatusOK {
		t.Fatalf("warm build = %d %s", status, raw)
	}

	verdicts := make([]string, concurrent)
	par.Chunks(concurrent, concurrent, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			status, header, raw, err := tryPost(ts, "/v1/verify", body)
			var v verifyResponse
			if err != nil || status != http.StatusOK || json.Unmarshal(raw, &v) != nil || !v.Legal || v.Cache != "HIT" || header != v.Verdict {
				t.Errorf("concurrent verify %d = %d %q %s %v", i, status, header, raw, err)
			}
			verdicts[i] = v.Verdict
		}
	})
	misses := 0
	for _, v := range verdicts {
		switch v {
		case "MISS":
			misses++
		case "HIT", "INFLIGHT":
		default:
			t.Errorf("verdict outcome %q", v)
		}
	}
	if misses != 1 {
		t.Errorf("%d of %d concurrent verifies certified, want exactly 1: %v", misses, concurrent, verdicts)
	}

	s.BeginDrain()
	for i := 0; i < sequential; i++ {
		if v := verify(t, ts, body); v.Verdict != "HIT" || !v.Legal {
			t.Fatalf("sequential verify %d while draining = %+v, want a legal verdict HIT", i, v)
		}
	}

	if n := runs.Load(); n != 1 {
		t.Fatalf("verifier ran %d times, want exactly 1", n)
	}
	if held := slotsHeld.Load(); held != 1 {
		t.Fatalf("the certifying verify held %d admission slots, want 1", held)
	}
	m := o.Snapshot()
	if shed := m.Get(obs.ShedQueueFull) + m.Get(obs.ShedDraining); shed != 0 {
		t.Fatalf("%d acquisitions shed: a verify beyond the leader asked for a slot", shed)
	}
	if hits, misses := verdictCounters(o); misses != 1 || hits != concurrent+sequential-1 {
		t.Fatalf("verdict_hits=%d verdict_misses=%d, want %d and 1", hits, misses, concurrent+sequential-1)
	}
	if s.queue.Active() != 0 {
		t.Fatalf("%d admission slots still held", s.queue.Active())
	}
}

// TestVerdictCountersOverManyKeys verifies 12 keys three times each, in
// rotation, through the real verifier: each key is certified exactly once
// and every later verify is a verdict hit.
func TestVerdictCountersOverManyKeys(t *testing.T) {
	const rounds = 3
	o := obs.New()
	ts := newTestServer(t, Config{Obs: o})
	var bodies []string
	for n := 2; n <= 7; n++ {
		for _, layers := range []int{2, 4} {
			bodies = append(bodies, hyperBody(n, layers))
		}
	}
	for r := 0; r < rounds; r++ {
		for _, body := range bodies {
			v := verify(t, ts, body)
			want := "HIT"
			if r == 0 {
				want = "MISS"
			}
			if v.Verdict != want || !v.Legal {
				t.Fatalf("round %d verify %s = %+v, want a legal verdict %s", r, body, v, want)
			}
		}
	}
	requests := int64(rounds * len(bodies))
	if hits, misses := verdictCounters(o); misses != 12 || hits != requests-12 {
		t.Fatalf("verdict_hits=%d verdict_misses=%d over %d requests, want %d and 12", hits, misses, requests, requests-12)
	}
	if got := o.Snapshot().Get(obs.CacheMisses); got != 12 {
		t.Fatalf("cache_misses = %d, want 12 (one build per key)", got)
	}
}

// TestCertifyLeaderCancellationDoesNotPoisonWaiters mirrors the build
// cache's singleflight race for the verdict slot: the certifying leader's
// request is canceled mid-verify, and a waiter whose own context is live
// must not inherit that cancellation — it retries and certifies itself.
func TestCertifyLeaderCancellationDoesNotPoisonWaiters(t *testing.T) {
	o := obs.New()
	c := NewCache(0, o)
	req, key := canonicalRequest(t, "hypercube", map[string]int{"n": 3}, 2)
	res, _, err := c.GetKeyed(context.Background(), key, req, realBuild)
	if err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	inVerify := make(chan struct{})
	verifyFn := func(ctx context.Context, r mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		if runs.Add(1) == 1 {
			close(inVerify)
			<-ctx.Done()
			return nil, par.Canceled(ctx)
		}
		return realVerify(ctx, r, lay)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Certify(leaderCtx, req, res, verifyFn)
		leaderDone <- err
	}()
	<-inVerify

	type outcome struct {
		v   *Verdict
		out Outcome
		err error
	}
	waiterDone := make(chan outcome, 1)
	waiterCtx := &parkedCtx{Context: context.Background(), parked: make(chan struct{})}
	go func() {
		v, out, err := c.Certify(waiterCtx, req, res, verifyFn)
		waiterDone <- outcome{v, out, err}
	}()
	// The waiter asks for its Done channel only once it has joined the
	// leader's certification, so this proves it is waiting on the leader
	// before the leader is canceled.
	<-waiterCtx.parked

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	w := <-waiterDone
	if w.err != nil || w.v == nil || !w.v.Legal || w.out != Miss {
		t.Fatalf("live waiter = %+v, want it to certify the key itself (Miss, legal)", w)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("verifier runs = %d, want 2 (canceled leader + retried waiter)", n)
	}
	if res.verdict.Load() != w.v {
		t.Fatal("the retried certification was not stored with the result")
	}
	if hits, misses := verdictCounters(o); hits != 0 || misses != 2 {
		t.Fatalf("verdict_hits=%d verdict_misses=%d, want 0 and 2 (two certifications, no verdict served unverified)", hits, misses)
	}
}

// parkedCtx is a live context that closes parked the first time a caller
// asks for its Done channel. Certify asks only once it has joined an
// in-flight certification and is about to wait on it.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (p *parkedCtx) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parked) })
	return p.Context.Done()
}

// TestFailedCertificationCountsNoHits: verifies parked on a certification
// whose leader is then shed share its error and count no verdict hit, so
// verdict_hits only ever counts verifies that got a verdict.
func TestFailedCertificationCountsNoHits(t *testing.T) {
	const waiters = 7
	o := obs.New()
	c := NewCache(0, o)
	req, key := canonicalRequest(t, "hypercube", map[string]int{"n": 3}, 2)
	res, _, err := c.GetKeyed(context.Background(), key, req, realBuild)
	if err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int32
	inVerify, shed := make(chan struct{}), make(chan struct{})
	verifyFn := func(ctx context.Context, r mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		if runs.Add(1) == 1 {
			close(inVerify)
		}
		<-shed
		return nil, &resilience.OverloadError{Reason: resilience.ReasonQueueFull}
	}

	errs := make(chan error, waiters+1)
	go func() {
		_, _, err := c.Certify(context.Background(), req, res, verifyFn)
		errs <- err
	}()
	<-inVerify
	for i := 0; i < waiters; i++ {
		ctx := &parkedCtx{Context: context.Background(), parked: make(chan struct{})}
		go func() {
			_, _, err := c.Certify(ctx, req, res, verifyFn)
			errs <- err
		}()
		<-ctx.parked
	}
	close(shed)
	for i := 0; i <= waiters; i++ {
		var oe *resilience.OverloadError
		if err := <-errs; !errors.As(err, &oe) || oe.Reason != resilience.ReasonQueueFull {
			t.Fatalf("verify %d err = %v, want the leader's queue_full shed", i, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("verifier runs = %d, want 1", n)
	}
	if hits, misses := verdictCounters(o); hits != 0 || misses != 1 {
		t.Fatalf("verdict_hits=%d verdict_misses=%d, want 0 and 1", hits, misses)
	}
	if res.verdict.Load() != nil {
		t.Fatal("a shed certification stored a verdict")
	}
}

// TestShedCertificationStoresNothing: a certification shed by admission
// answers the overload envelope and leaves the key uncertified, so the next
// verify certifies it.
func TestShedCertificationStoresNothing(t *testing.T) {
	o := obs.New()
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, Obs: o})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := hyperBody(4, 2)
	_, key := canonicalRequest(t, "hypercube", map[string]int{"n": 4}, 2)
	if status, _, raw := postRaw(t, ts, "/v1/build", body); status != http.StatusOK {
		t.Fatalf("warm build = %d %s", status, raw)
	}

	release, err := s.queue.Acquire(context.Background(), "hold")
	if err != nil {
		t.Fatal(err)
	}
	status, _, raw := postRaw(t, ts, "/v1/verify", body)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || status != http.StatusServiceUnavailable ||
		eb.Error.Kind != "overload" || eb.Error.Reason != "queue_full" {
		t.Fatalf("verify with no free slot = %d %s, want 503 overload queue_full", status, raw)
	}
	res, ok := s.Cache().Peek(key)
	if !ok {
		t.Fatal("layout left the cache")
	}
	if res.verdict.Load() != nil {
		t.Fatal("a shed certification stored a verdict")
	}
	release()

	if v := verify(t, ts, body); v.Verdict != "MISS" || v.Cache != "HIT" || !v.Legal {
		t.Fatalf("verify after the shed = %+v, want cache HIT, verdict MISS, legal", v)
	}
	if _, misses := verdictCounters(o); misses != 2 {
		t.Fatalf("verdict_misses = %d, want 2 (the shed attempt and the certification)", misses)
	}
}

// TestEvictionDropsVerdict: a cache with room for one layout, sized to the
// larger of two, evicts a certified key when the other lands, and the
// evicted key's next verify rebuilds and certifies again.
func TestEvictionDropsVerdict(t *testing.T) {
	big, err := realBuild(nil, hyperReq(5))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	s := New(Config{CacheBytes: big.MemBytes(), Obs: o})
	var runs atomic.Int32
	s.verifyFn = func(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		runs.Add(1)
		return realVerify(ctx, req, lay)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, b := hyperBody(4, 2), hyperBody(5, 2)
	for i, step := range []struct {
		body, cache, verdict string
	}{
		{a, "MISS", "MISS"},
		{a, "HIT", "HIT"},
		{b, "MISS", "MISS"}, // evicts a with its verdict
		{a, "MISS", "MISS"}, // rebuilt, so certified again
	} {
		if v := verify(t, ts, step.body); v.Cache != step.cache || v.Verdict != step.verdict || !v.Legal {
			t.Fatalf("step %d: verify = %+v, want cache %s verdict %s", i, v, step.cache, step.verdict)
		}
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("verifier runs = %d, want 3", n)
	}
	if got := o.Snapshot().Get(obs.CacheEvictions); got != 2 {
		t.Fatalf("cache_evictions = %d, want 2", got)
	}
}

// TestIllegalVerdictIsStable injects an illegal layout through buildFn and
// asserts the stored verdict answers a hit with exactly the violations the
// certifying verify found.
func TestIllegalVerdictIsStable(t *testing.T) {
	s := New(Config{})
	s.buildFn = func(ctx context.Context, req mlvlsi.BuildRequest) (*mlvlsi.Layout, error) {
		lay, err := mlvlsi.BuildSpec(ctx, req)
		if err != nil {
			return nil, err
		}
		bad, _, err := fault.Injector{Seed: 7}.Apply(lay, fault.Duplicate)
		return bad, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := hyperBody(4, 4)

	miss := verify(t, ts, body)
	if miss.Verdict != "MISS" || miss.Legal || len(miss.Violations) == 0 {
		t.Fatalf("first verify = %+v, want an illegal verdict MISS with violations", miss)
	}
	hit := verify(t, ts, body)
	if hit.Verdict != "HIT" || hit.Legal || !reflect.DeepEqual(hit.Violations, miss.Violations) {
		t.Fatalf("hit violations %v differ from the certifying verify's %v", hit.Violations, miss.Violations)
	}
	var b buildResponse
	post(t, ts, "/v1/build", body, &b)
	if b.Certified == nil || *b.Certified {
		t.Fatalf("build of an illegal certified key: certified = %v, want false", b.Certified)
	}
}

// TestDrainingServesVerdictHits: while draining, a certified key still
// answers its verify, and a certification, which needs admission, is shed
// with the draining envelope.
func TestDrainingServesVerdictHits(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	certifiedBody, uncertifiedBody := hyperBody(4, 2), hyperBody(5, 2)
	verify(t, ts, certifiedBody)
	if status, _, raw := postRaw(t, ts, "/v1/build", uncertifiedBody); status != http.StatusOK {
		t.Fatalf("warm build = %d %s", status, raw)
	}

	s.BeginDrain()
	if v := verify(t, ts, certifiedBody); v.Verdict != "HIT" || !v.Legal {
		t.Fatalf("draining verify of a certified key = %+v, want a legal verdict HIT", v)
	}
	status, _, raw := postRaw(t, ts, "/v1/verify", uncertifiedBody)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || status != http.StatusServiceUnavailable ||
		eb.Error.Kind != "overload" || eb.Error.Reason != "draining" {
		t.Fatalf("draining certification = %d %s, want 503 overload draining", status, raw)
	}
}

// TestPanickingVerifyReleasesSlot: a verifier panic reaches the recovery
// middleware as a 500 internal envelope without leaking its admission slot
// or wedging the key; the next verify certifies normally.
func TestPanickingVerifyReleasesSlot(t *testing.T) {
	o := obs.New()
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, Obs: o, Log: io.Discard})
	var calls atomic.Int32
	s.verifyFn = func(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error) {
		if calls.Add(1) == 1 {
			panic("fake verifier exploded")
		}
		return realVerify(ctx, req, lay)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := hyperBody(4, 2)

	status, _, raw := postRaw(t, ts, "/v1/verify", body)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || status != http.StatusInternalServerError ||
		eb.Error.Kind != "internal" || !strings.Contains(eb.Error.Message, "fake verifier exploded") {
		t.Fatalf("panicking verify = %d %s, want 500 internal naming the panic", status, raw)
	}
	if got := o.Snapshot().Get(obs.PanicsRecovered); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	if n := s.queue.Active(); n != 0 {
		t.Fatalf("%d admission slots still held after the panic", n)
	}
	// With one slot and no queue, a leaked slot would shed this verify.
	if v := verify(t, ts, body); v.Verdict != "MISS" || !v.Legal {
		t.Fatalf("verify after the panic = %+v, want a legal verdict MISS", v)
	}
}

// legacyBuildResponse is the /v1/build body as it was before verdicts
// existed, the shape an uncertified key must still produce byte for byte.
type legacyBuildResponse struct {
	Key      string       `json:"key"`
	Cache    string       `json:"cache"`
	Stats    mlvlsi.Stats `json:"stats"`
	MemBytes int64        `json:"mem_bytes"`
}

// TestBuildCarriesCertified: /v1/build and /v1/build_batch omit "certified"
// until the key is verified — their bodies are then exactly the
// pre-verdict bytes — and carry certified:true after.
func TestBuildCarriesCertified(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := hyperBody(4, 4)
	batch := `{"requests":[` + body + `]}`

	_, _, raw := postRaw(t, ts, "/v1/build", body)
	var before buildResponse
	if err := json.Unmarshal(raw, &before); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(legacyBuildResponse{before.Key, before.Cache, before.Stats, before.MemBytes}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("uncertified build body changed:\n got %s\nwant %s", raw, want.Bytes())
	}
	if _, _, raw := postRaw(t, ts, "/v1/build_batch", batch); bytes.Contains(raw, []byte("certified")) {
		t.Fatalf("uncertified batch item carries certified: %s", raw)
	}

	verify(t, ts, body)
	var after buildResponse
	post(t, ts, "/v1/build", body, &after)
	if after.Certified == nil || !*after.Certified {
		t.Fatalf("build after verify: certified = %v, want true", after.Certified)
	}
	var br batchResponse
	post(t, ts, "/v1/build_batch", batch, &br)
	if c := br.Results[0].Certified; c == nil || !*c {
		t.Fatalf("batch item after verify: certified = %v, want true", c)
	}
}

// TestCacheHitPathsDoNotAllocate pins the cost of the two lookups a warm
// verify makes: the layout hit and the verdict hit allocate nothing, and
// the verdict hit takes no lock.
func TestCacheHitPathsDoNotAllocate(t *testing.T) {
	c := NewCache(0, obs.New())
	req, key := canonicalRequest(t, "hypercube", map[string]int{"n": 4}, 2)
	res, _, err := c.GetKeyed(nil, key, req, realBuild)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Certify(nil, req, res, realVerify); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, out, _ := c.GetKeyed(nil, key, req, realBuild); out != Hit {
			t.Fatalf("outcome %v, want Hit", out)
		}
	}); n != 0 {
		t.Errorf("layout hit allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, out, _ := c.Certify(nil, req, res, realVerify); out != Hit || v == nil || certified(res) == nil {
			t.Fatalf("outcome %v, want a verdict Hit", out)
		}
	}); n != 0 {
		t.Errorf("verdict hit allocates %v times", n)
	}
	// A verdict hit answered while another goroutine holds the cache lock
	// proves the hit never takes it.
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan Outcome, 1)
	go func() {
		_, out, _ := c.Certify(nil, req, res, realVerify)
		done <- out
	}()
	select {
	case out := <-done:
		if out != Hit {
			t.Errorf("outcome %v, want a verdict Hit", out)
		}
	case <-time.After(5 * time.Second):
		t.Error("a verdict hit waited on the cache lock")
	}
}

// TestConcurrentCertifyRace runs certifications and hits of several keys
// together so the race detector sees the verdict slot's publication.
func TestConcurrentCertifyRace(t *testing.T) {
	c := NewCache(0, obs.New())
	var wg sync.WaitGroup
	for n := 2; n <= 5; n++ {
		req, key := canonicalRequest(t, "hypercube", map[string]int{"n": n}, 2)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _, err := c.GetKeyed(context.Background(), key, req, realBuild)
				if err != nil {
					t.Error(err)
					return
				}
				if v, _, err := c.Certify(context.Background(), req, res, realVerify); err != nil || !v.Legal {
					t.Errorf("certify %s = %+v %v", key, v, err)
				}
			}()
		}
	}
	wg.Wait()
}
