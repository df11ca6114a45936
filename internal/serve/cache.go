// Package serve is the layout-as-a-service layer: a content-addressed build
// cache and an HTTP/JSON server over the registry engines, the front door
// the earlier PRs built toward (typed ParamErrors, cancellation and MaxCells
// admission, the fast verifier, the zero-overhead observer).
//
// The constructions are pure functions of the canonical request
// (mlvlsi.BuildRequest.Key), so identical requests are served from memory:
// concurrent misses collapse onto one build (hand-rolled singleflight),
// completed layouts are retained LRU under a byte budget
// (Layout.MemBytes accounting), each retained layout's verify verdict is
// computed once and stored with it (filled through the same singleflight),
// and every cache event flows through the internal/obs counters so -trace
// and /metricsz see hits, misses, evictions, in-flight waits, retained
// bytes, and verdict hits and misses.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mlvlsi"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
	"mlvlsi/internal/resilience"
)

// Outcome classifies how a cache lookup was satisfied.
type Outcome uint8

const (
	// Miss: this lookup ran the build (exactly one per singleflight group).
	Miss Outcome = iota
	// Hit: answered from a completed cached layout, no build ran.
	Hit
	// Inflight: an identical build was already running; this lookup waited
	// for its result instead of building again.
	Inflight
)

// String returns the outcome in X-Cache header casing.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "HIT"
	case Inflight:
		return "INFLIGHT"
	}
	return "MISS"
}

// BuildFunc runs one cache miss. It must honor ctx and return either a
// layout or an error; the cache never retains errors, so a failed build is
// retried by the next request for the same key.
type BuildFunc func(ctx context.Context, req mlvlsi.BuildRequest) (*mlvlsi.Layout, error)

// VerifyFunc certifies one cached layout, built for req. It must honor ctx
// and return the violation set or an error; like build errors, failed
// certifications are never retained.
type VerifyFunc func(ctx context.Context, req mlvlsi.BuildRequest, lay *mlvlsi.Layout) ([]mlvlsi.Violation, error)

// Result is a completed build as the cache retains it: the layout plus the
// derived values every response needs. Stats and MemBytes walk all wires
// (O(total wire length)), so they are computed once when the build lands
// rather than on every hit — on a big layout that walk costs more than the
// whole HTTP round trip. The key's verdict joins them once a verify has
// certified the layout (Certify); it lives and dies with the Result, so
// evicting the layout drops its verdict too.
type Result struct {
	Layout   *mlvlsi.Layout
	Stats    mlvlsi.Stats
	MemBytes int64

	// verdict is stored once, by the certification that succeeds, and never
	// replaced, so readers need only an atomic load.
	verdict atomic.Pointer[Verdict]
	// certifying is the certification in flight, nil otherwise. Guarded by
	// Cache.mu.
	certifying *flight
}

// Verdict is a cached layout's certification: the violation set found by
// the verify that certified its key. The verifier returns the same set for
// every execution knob, with one exception: on an illegal layout a serial
// verify (workers: 1) stops recording a violating wire's remaining edges
// and may list fewer violations. The stored set is therefore the one the
// certifying verify found; Legal, the verdict itself, always agrees.
type Verdict struct {
	Legal      bool
	Violations []mlvlsi.Violation
}

// flight is one singleflight computation: the build behind a cache entry,
// or the certification behind a result's verdict. ready is closed once err
// and the value the flight fills are final; both are written exactly once,
// before the close, and never after, so readers that observed the close may
// read them without the cache lock.
type flight struct {
	ready chan struct{}
	err   error
}

// done reports whether the flight has completed.
func (f *flight) done() bool {
	select {
	case <-f.ready:
		return true
	default:
		return false
	}
}

// entry is one cache slot, ready once its build completes. res is written
// exactly once, before the close. elem is the entry's LRU position — nil
// while the build is in flight and again after eviction (eviction never
// invalidates handed-out results: *Layout is immutable by convention,
// holders just keep it alive).
type entry struct {
	flight
	key  string
	res  *Result
	elem *list.Element
}

// Cache is a content-addressed layout cache: singleflight-deduplicated
// misses, LRU eviction under a byte budget, a verdict slot per retained
// layout, counters through internal/obs. The zero value is not usable;
// create one with NewCache. All methods are safe for concurrent use.
type Cache struct {
	budget int64
	obs    *obs.Observer

	mu      sync.Mutex
	used    int64
	entries map[string]*entry
	lru     *list.List // front = most recently used; element values are *entry
}

// NewCache creates a cache retaining at most budget bytes of completed
// layouts (MemBytes accounting); budget <= 0 means unlimited. Counters
// accumulate on o, which may be nil (disabled, the usual obs contract).
func NewCache(budget int64, o *obs.Observer) *Cache {
	return &Cache{
		budget:  budget,
		obs:     o,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
}

// Get returns the result for req's content key, building it with build on a
// miss. Concurrent callers with the same key collapse onto one build: the
// first caller runs build, the rest wait on its result (or their own ctx).
// A build error is returned to the leader and every waiter, then forgotten —
// the next request retries. ctx may be nil (no cancellation while waiting).
func (c *Cache) Get(ctx context.Context, req mlvlsi.BuildRequest, build BuildFunc) (*Result, Outcome, error) {
	return c.GetKeyed(ctx, req.Key(), req, build)
}

// GetKeyed is Get for callers that already hold req's content key (the
// server computes it once per request and reuses it in the response);
// passing a key that is not req.Key() silently poisons the cache, so only
// ever pass the canonical one.
func (c *Cache) GetKeyed(ctx context.Context, key string, req mlvlsi.BuildRequest, build BuildFunc) (*Result, Outcome, error) {
	var e *entry
	out, err := c.singleflight(ctx, "build",
		func() (*flight, bool) {
			var ok bool
			if e, ok = c.entries[key]; !ok {
				e = &entry{key: key, flight: flight{ready: make(chan struct{})}}
				c.entries[key] = e
				c.obs.Add(obs.CacheMisses, 1)
				return &e.flight, true
			}
			if e.done() {
				// Completed entries in the map are always successes (finish
				// removes failures before closing ready), so this is a hit.
				c.lru.MoveToFront(e.elem)
				c.obs.Add(obs.CacheHits, 1)
				return nil, false
			}
			c.obs.Add(obs.CacheInflightWaits, 1)
			return &e.flight, false
		},
		func() error {
			lay, err := build(ctx, req)
			if err == nil {
				// The derived values are computed here, outside the lock and
				// once per build, so hits and waiters read them for free.
				e.res = &Result{Layout: lay, Stats: lay.Stats(), MemBytes: lay.MemBytes()}
			}
			return err
		},
		func() { c.finish(e) })
	if err != nil {
		// A waiter that gave up may still share e with a running leader,
		// which writes e.res later; never read it on failure.
		return nil, out, err
	}
	return e.res, out, nil
}

// Certify returns the verdict for res, a result this cache handed out for
// req's key. The first caller leads: it runs verify and stores the
// violation set with the result. Concurrent callers wait for that verdict
// (or on their own ctx), and later callers read it with one atomic load,
// taking no lock. Failures — cancellation, admission sheds, verifier errors
// and panics — store nothing, so the next caller certifies again; waiters
// whose leader failed for a reason scoped to its own request retry exactly
// as GetKeyed's do. ctx may be nil.
//
// Each certification counts one verdict miss. A verdict hit is counted
// only for a caller that got a verdict without running the verifier: a
// waiter whose wait fails (its leader shed or erred, or its own ctx ended)
// counts neither.
func (c *Cache) Certify(ctx context.Context, req mlvlsi.BuildRequest, res *Result, verify VerifyFunc) (*Verdict, Outcome, error) {
	if v := res.verdict.Load(); v != nil {
		c.obs.Add(obs.VerdictHits, 1)
		return v, Hit, nil
	}
	out, err := c.singleflight(ctx, "verify",
		func() (*flight, bool) {
			switch {
			case res.verdict.Load() != nil:
				return nil, false
			case res.certifying == nil:
				res.certifying = &flight{ready: make(chan struct{})}
				c.obs.Add(obs.VerdictMisses, 1)
				return res.certifying, true
			}
			return res.certifying, false
		},
		func() error {
			vs, err := verify(ctx, req, res.Layout)
			if err == nil {
				res.verdict.Store(&Verdict{Legal: len(vs) == 0, Violations: vs})
			}
			return err
		},
		func() { res.certifying = nil })
	if err != nil {
		return nil, out, err
	}
	if out != Miss {
		c.obs.Add(obs.VerdictHits, 1)
	}
	return res.verdict.Load(), out, nil
}

// singleflight is the protocol GetKeyed and Certify share: it runs one
// computation per key at a time, however many callers ask for it.
//
// join runs under c.mu, counts the lookup, and classifies it by its result:
// a nil flight is a hit (the value is already complete); a flight with lead
// set is new, installed by join for this caller to run; any other flight is
// in progress, and the caller waits on it or on its own ctx. run is the
// leader's computation, called outside the lock; it fills the flight's
// value on success. settle runs under c.mu once run returns — or panics —
// and before ready closes; it publishes a success and drops a failure, so
// the key retries.
//
// A waiter whose leader failed for a reason scoped to the leader's own
// request (see leaderScoped) while its own ctx is live looks the key up
// again, typically becoming the new leader.
func (c *Cache) singleflight(ctx context.Context, what string, join func() (f *flight, lead bool), run func() error, settle func()) (Outcome, error) {
	for {
		c.mu.Lock()
		f, lead := join()
		c.mu.Unlock()
		switch {
		case f == nil:
			return Hit, nil
		case lead:
			return Miss, c.lead(f, what, run, settle)
		}
		if err := waitReady(ctx, f.ready); err != nil {
			return Inflight, err
		}
		if leaderScoped(f.err) && par.Canceled(ctx) == nil {
			continue
		}
		return Inflight, f.err
	}
}

// lead runs a new flight's computation and completes the flight: settle
// under the lock, then close ready, so no reader ever sees a completed
// flight whose outcome is not yet published. If run panics, the flight
// fails anyway — so waiters unblock and the key retries — and the panic
// continues up to the server's recovery middleware; without this, the
// never-ready flight would hang every future request for the key.
func (c *Cache) lead(f *flight, what string, run func() error, settle func()) error {
	completed := false
	defer func() {
		if !completed {
			f.err = fmt.Errorf("serve: %s panicked", what)
		}
		c.mu.Lock()
		settle()
		c.mu.Unlock()
		close(f.ready)
	}()
	f.err = run()
	completed = true
	return f.err
}

// leaderScoped reports whether a singleflight leader's error is specific to
// the leader's own request rather than to the build: cancellation of the
// leader's context, or a deadline-infeasibility shed computed against the
// leader's deadline. Waiters whose own contexts are still live must not
// inherit such failures.
func leaderScoped(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, par.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var oe *resilience.OverloadError
	return errors.As(err, &oe) && oe.Reason == resilience.ReasonDeadline
}

// Peek returns the completed result for key if one is retained, bumping its
// LRU recency; it never waits on an in-flight build and never builds. The
// degraded-serving path uses it to look for a coarser sibling of a request
// that admission shed.
func (c *Cache) Peek(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.done() || e.err != nil || e.elem == nil {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.res, true
}

// waitReady blocks until ready closes or ctx (which may be nil) is done.
func waitReady(ctx context.Context, ready <-chan struct{}) error {
	if ctx == nil {
		<-ready
		return nil
	}
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		return par.Canceled(ctx)
	}
}

// finish publishes a completed build: failures leave the map (so the key
// retries), successes join the LRU and the byte accounting, and the cache
// evicts from the cold end until it is back under budget. An evicted
// result takes its verdict with it. Callers hold c.mu; it runs before
// e.ready closes, so no reader ever sees a success missing from the LRU or
// a failure still occupying its key.
func (c *Cache) finish(e *entry) {
	if e.err != nil {
		delete(c.entries, e.key)
		return
	}
	c.used += e.res.MemBytes
	e.elem = c.lru.PushFront(e)
	if c.budget > 0 {
		for c.used > c.budget && c.lru.Len() > 0 {
			oldest := c.lru.Back().Value.(*entry)
			c.lru.Remove(oldest.elem)
			oldest.elem = nil
			delete(c.entries, oldest.key)
			c.used -= oldest.res.MemBytes
			c.obs.Add(obs.CacheEvictions, 1)
		}
	}
	c.obs.Set(obs.CacheBytes, c.used)
}

// Len and UsedBytes report the current retained state (completed entries
// only; in-flight builds are not counted).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
