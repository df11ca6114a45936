package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"mlvlsi"
)

// workload is one input mix the benchmark drives. The three serving mixes
// are open loops against an in-process layoutd; bulk is one closed-loop
// caller of mlvlsi.VerifyBatch. Every mix and rate is an assumption: the
// repository holds no recorded production traffic, and its only measured
// mix, cmd/loadgen's own synthetic key set in BENCH_7.json, hit the cache
// on 97–100% of requests.
type workload struct {
	name string
	// endpoint is the route every request posts to; empty for bulk.
	endpoint string
	// rate is the nominal open-loop rate in requests per second. It is sized
	// so that the ladder's top step (4×) stays under the capacity of the
	// two-vCPU machine the bounds were measured on, which makes max_rps a
	// floor check that passes in every run; see README.md.
	rate float64
	// slo is the latency limit: the nominal window's p99 target, the ladder
	// steps' p95 test, and the lateness bound past which a run is invalid.
	slo time.Duration
	// replay is how many nominal-window requests a traced run replays stage
	// by stage; a count, not a duration, so work counters repeat exactly.
	replay int
	why    string
}

var workloads = []*workload{
	{name: "hot-hits", endpoint: "/v1/build", rate: 2500, slo: 2 * time.Millisecond, replay: 2000,
		why: "assumed all-hit mix over 16 keys built in setup: decode, key, cache lookup and encode with no engine work, so per-request serving overhead shows alone"},
	{name: "churn", endpoint: "/v1/build", rate: 200, slo: 50 * time.Millisecond, replay: 800,
		why: "assumed mix of 25% fresh keys from a 1024-key pool and 75% Zipf re-requests: cold builds, admission and cache evictions beside hits"},
	{name: "verify", endpoint: "/v1/verify", rate: 40, slo: 150 * time.Millisecond, replay: 200,
		why: "assumed mix of 12 cached mid-size layouts re-verified per request: the dense verifier dominates and the build engine is idle"},
	{name: "bulk",
		why: "assumed batch of large cubes through one closed-loop VerifyBatch caller: the verifier sets time and peak memory; no HTTP, cache or admission"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// spec parses the compact request notation the key tables use:
// "family k=v ... [L=layers] [side=node_side]".
func spec(s string) mlvlsi.BuildRequest {
	f := strings.Fields(s)
	req := mlvlsi.BuildRequest{Family: mlvlsi.FamilySpec{Name: f[0], Params: map[string]int{}}}
	for _, kv := range f[1:] {
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			panic(fmt.Sprintf("bench: malformed key spec %q", s))
		}
		switch k {
		case "L":
			req.Layers = n
		case "side":
			req.NodeSide = n
		default:
			req.Family.Params[k] = n
		}
	}
	return req
}

// expand crosses family specs with layer counts and node sides (none
// given: the minimal node) into requests, layer-major then side-major, so
// every family appears once per (layers, side) variant before the next.
func expand(families []string, layers []int, sides []int) []mlvlsi.BuildRequest {
	if len(sides) == 0 {
		sides = []int{0}
	}
	var out []mlvlsi.BuildRequest
	for _, l := range layers {
		for _, side := range sides {
			for _, f := range families {
				out = append(out, spec(fmt.Sprintf("%s L=%d side=%d", f, l, side)))
			}
		}
	}
	return out
}

// The hot set: eight families at two layer counts.
var hotFamilies = []string{
	"hypercube n=10", "kary k=8 n=3", "mesh n=32 d=2", "butterfly m=7",
	"ccc n=8", "star n=6", "folded n=9", "ghc r=4 n=4",
}

// The churn pool's non-enhanced part: registry families whose cold builds
// take 0.2–4 ms here, crossed with three layer counts and three node sides
// (0 is the minimal node; 12 and 16 exceed every listed family's minimum).
var churnFamilies = []string{
	"butterfly m=5", "butterfly m=6", "butterfly m=7", "butterfly m=8",
	"ccc n=6", "ccc n=7", "ccc n=8", "star n=5", "star n=6",
	"pancake n=5", "bubblesort n=5", "transposition n=5", "isn m=6", "rh n=8", "scc n=5",
	"kary k=8 n=3", "kary k=32 n=2", "mesh n=32 d=2", "ghc r=4 n=4",
	"hypercube n=8", "hypercube n=9", "hypercube n=10",
	"folded n=8", "folded n=9", "folded n=10",
}

// churnPool is the number of distinct keys churn draws fresh requests from,
// churnRecent how many of the most recently drawn keys its re-requests pick
// among, and churnBlock the block of requests that holds one fresh key.
const (
	churnPool   = 1024
	churnRecent = 256
	churnBlock  = 4
	churnZipf   = 1.1
)

// The verify set: twelve mid-size layouts.
var verifyKeys = []string{
	"hypercube n=8 L=4", "hypercube n=9 L=4", "hypercube n=10 L=4",
	"kary k=8 n=3 L=4", "kary k=32 n=2 L=4", "ccc n=8 L=4", "butterfly m=7 L=4",
	"star n=6 L=4", "folded n=10 L=4", "ghc r=4 n=4 L=4", "enhanced n=9 seed=1 L=4",
	"mesh n=32 d=2 L=4",
}

// The bulk sequence: verifier-heavy instances, far past the serving sizes,
// then two enhanced cubes whose link seeds the workload seed picks. The
// order is fixed: VerifyBatch builds item i+1 while it verifies item i, so
// the order sets the peak memory, which must not vary with the seed.
var bulkKeys = []string{
	"hypercube n=12 L=4", "hypercube n=12 L=8", "hypercube n=13 L=4", "hypercube n=13 L=8",
	"hypercube n=14 L=4", "folded n=12 L=4", "star n=7 L=4", "ccc n=10 L=4", "butterfly m=9 L=4",
}

// bulkQuick is the two-item sequence of a -quick run.
var bulkQuick = []string{"ccc n=10 L=4", "butterfly m=9 L=4"}

// plan is everything a seed decides for one workload: the key table, the
// keys built during setup, and the key of every scheduled request.
type plan struct {
	keys    []mlvlsi.BuildRequest
	prewarm []int
	stream  []int
}

// rngFor derives a workload's random stream from the seed, so workloads
// draw independently and the same seed always yields the same inputs.
func rngFor(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
}

// makePlan generates a workload's inputs for a seed: shots is the total
// number of scheduled requests across every phase.
func makePlan(w *workload, seed int64, shots int, quick bool) plan {
	rng := rngFor(seed, w.name)
	var p plan
	switch w.name {
	case "hot-hits":
		p.keys = expand(hotFamilies, []int{2, 4}, nil)
		p.prewarm = seq(len(p.keys))
		p.stream = balanced(rng, len(p.keys), shots)
	case "churn":
		p.keys = churnKeys(rng)
		p.prewarm = seq(churnRecent)
		p.stream = churnStream(rng, shots)
	case "verify":
		for _, s := range verifyKeys {
			p.keys = append(p.keys, spec(s))
		}
		p.prewarm = seq(len(p.keys))
		p.stream = balanced(rng, len(p.keys), shots)
	case "bulk":
		src := bulkKeys
		if quick {
			src = bulkQuick
		}
		for _, s := range src {
			p.keys = append(p.keys, spec(s))
		}
		if !quick {
			for _, l := range []int{4, 8} {
				p.keys = append(p.keys, spec(fmt.Sprintf("enhanced n=11 seed=%d L=%d", rng.Int63n(1<<30), l)))
			}
		}
	}
	return p
}

// churnKeys builds the 1024-key pool in draw order. Its composition is
// fixed — the non-enhanced keys spread evenly through the enhanced cubes
// (n 8–10 × L 2/4/8, cycling) — so every prefix, and with it the setup and
// cold-build cost, is the same for every seed; the seed picks the enhanced
// cubes' link seeds.
func churnKeys(rng *rand.Rand) []mlvlsi.BuildRequest {
	others := expand(churnFamilies, []int{2, 4, 8}, []int{0, 12, 16})
	keys := make([]mlvlsi.BuildRequest, 0, churnPool)
	for i, e := 0, 0; i < churnPool; i++ {
		if o := (i + 1) * len(others) / churnPool; o > i*len(others)/churnPool {
			keys = append(keys, others[o-1])
			continue
		}
		keys = append(keys, spec(fmt.Sprintf("enhanced n=%d seed=%d L=%d",
			8+e%3, rng.Int63n(1<<30), []int{2, 4, 8}[(e/3)%3])))
		e++
	}
	return keys
}

// churnStream draws one fresh pool key (the next in draw order, cycling) at
// a random place in every block of churnBlock requests, and fills the rest
// of the block with Zipf-ranked re-requests of the churnRecent most recent
// fresh keys, rank 0 the newest. A fixed share of fresh keys per block
// keeps the cold-build load the same in every stretch and every seed.
// Setup prebuilt the first churnRecent keys, so the recency window starts
// full.
func churnStream(rng *rand.Rand, shots int) []int {
	var recent [churnRecent]int
	for i := range recent {
		recent[i] = i
	}
	head, next := 0, churnRecent // recent[head] is the oldest
	zipf := rand.NewZipf(rng, churnZipf, 1, churnRecent-1)
	out := make([]int, shots)
	fresh := 0
	for i := range out {
		if i%churnBlock == 0 {
			fresh = i + rng.Intn(churnBlock)
		}
		if i == fresh {
			out[i] = next % churnPool
			recent[head] = out[i]
			head = (head + 1) % churnRecent
			next++
			continue
		}
		r := int(zipf.Uint64())
		out[i] = recent[(head-1-r+2*churnRecent)%churnRecent]
	}
	return out
}

// balanced draws the stream as back-to-back random permutations of the n
// keys: every key comes once per block of n, so every stretch of the window,
// and every seed, requests the same mix in a different order. Uniform draws
// would let a seed's mix of cheap and costly keys move the percentiles.
func balanced(rng *rand.Rand, n, shots int) []int {
	out := make([]int, 0, shots+n)
	for len(out) < shots {
		out = append(out, rng.Perm(n)...)
	}
	return out[:shots]
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// phase is one constant-rate segment of an open-loop schedule; its requests
// are plan.stream[lo:hi].
type phase struct {
	name   string
	rate   float64
	lo, hi int
}

// ladderSteps are the ladder's rates as multiples of the nominal rate. Each
// step is at least 40% above the one before, so the step below it is at
// least 28% lower and losing one moves max_rps past its 25% bound. There is
// no 1.5× step: three steps of 1.5 s, rather than four of 1.1 s, spread a
// stall of the host over more requests.
var ladderSteps = []float64{2, 2.8, 4}

// schedule lays out a serving run of the given measured length: a
// one-second untimed warm-up at the nominal rate, the nominal window (85%
// of the length), then the ladder steps (5% each). The window gets most of
// the time because the gated latencies come from it; a step only has to
// show whether the server keeps up. A -quick run measures the nominal
// window only.
func schedule(w *workload, seconds float64, quick bool) []phase {
	S := time.Duration(seconds * float64(time.Second))
	var ps []phase
	add := func(name string, rate float64, dur time.Duration) {
		lo := 0
		if len(ps) > 0 {
			lo = ps[len(ps)-1].hi
		}
		n := int(rate*dur.Seconds() + 0.5)
		if n < 1 {
			n = 1
		}
		ps = append(ps, phase{name: name, rate: rate, lo: lo, hi: lo + n})
	}
	if quick {
		add("warmup", w.rate, S/5)
		add("nominal", w.rate, S)
		return ps
	}
	add("warmup", w.rate, time.Second)
	add("nominal", w.rate, S*85/100)
	for _, m := range ladderSteps {
		add(fmt.Sprintf("ladder-%gx", m), w.rate*m, S*5/100)
	}
	return ps
}
