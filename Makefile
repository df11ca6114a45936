GO ?= go

.PHONY: all vet build test race lint bench bench-test benchjson trace-smoke verify-smoke serve-smoke soak-smoke loadgen chaos fuzz check clean

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole module: the internal packages with
# parallel paths (the par worker pool, the sharded grid checker, the
# parallel realize loop, the routing sweeps) AND the root-package chaos,
# integration, and dense-diff tests, which exercise the same machinery end
# to end. Benchmarks don't run without -bench, so no -run filter is needed;
# the full pass is under a minute.
race:
	$(GO) test -race ./...

# Domain static analysis: go vet plus the repo's own invariant analyzers
# (see internal/analyze and `go run ./cmd/repolint -list`). Fails on any
# active finding; //mlvlsi:allow exceptions are reported on stderr and
# budgeted at 3 module-wide — more than that fails the lint too, so
# suppressions stay rare, visible, and individually justified.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/repolint -max-suppressed 3 ./...

# -count=3 repeats each benchmark so run-to-run noise is visible in the
# output; pipe through benchstat externally if you want summaries.
bench:
	$(GO) test -bench . -benchmem -count=3 -run '^$$' .

# The repository benchmark's own tests: bench/ is a separate module, so
# `go test ./...` at the root never reaches them. They run the -quick
# end-to-end pass of every workload against an in-process layoutd and the
# golden Stats gate, so a change to the server they drive is caught here.
bench-test:
	$(GO) -C bench test ./...

# Regenerate the committed benchmark trajectory. `make benchjson PR=4`
# writes BENCH_4.json; without PR= the tool overwrites the highest-numbered
# BENCH_<n>.json already present (the latest committed snapshot). CI runs
# the same tool with -quick as a smoke test.
PR ?=
benchjson:
	$(GO) run ./cmd/benchjson $(if $(PR),-pr $(PR))

# Observability smoke: build and verify a layout with -trace, then validate
# the Chrome-trace file against the schema tracelint enforces (span events
# with resolvable parents plus a complete counter snapshot).
TRACE ?= /tmp/mlvlsi-trace-smoke.json
trace-smoke:
	$(GO) run ./cmd/layoutgen -network hypercube -n 6 -L 4 -trace $(TRACE) > /dev/null
	$(GO) run ./cmd/tracelint $(TRACE)

# Tiled-verifier smoke: build Hypercube(14) at L=4 and verify it under a
# deliberately small memory ceiling, then assert from the printed counters
# that the ladder really dropped to the tiled rung (tiles_checked > 0)
# instead of silently verifying dense. Guards the whole -verify-mem path
# end to end: flag parsing, BuildRequest plumbing, ladder selection, and
# the counter discipline the assertion reads.
verify-smoke:
	$(GO) run ./cmd/layoutgen -network hypercube -n 14 -L 4 -verify-mem 4m -counters | grep -E '^tiles_checked [1-9]'

# Serving smoke: an in-process layoutd driven over real HTTP — MISS then
# HIT on one content key under two request spellings, the typed param error
# envelope, and the cache counters in /metricsz.
serve-smoke:
	$(GO) run ./cmd/loadgen -smoke

# Network-chaos soak: the full resilience sweep — every fault class at a 20%
# injection rate through resilience.Client against the admission-queued
# server, >= 99% convergence, queue bound held, zero leaked goroutines —
# under the race detector.
soak-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSweepConverges|TestCacheLeaderCancellation|TestPanicRecovery' ./internal/serve/

# Replay the mixed-family load sweep against an in-process server (clean,
# then under all-class network chaos) and refresh the committed serving
# trajectory (latency/throughput/hit-rate plus the error breakdown).
loadgen:
	$(GO) run ./cmd/loadgen -rates 100,300,1000,3000 -duration 3s -conns 2 -out /tmp/loadgen-clean.json
	$(GO) run ./cmd/loadgen -chaos all -chaos-rate 0.05 -rps 300 -duration 3s -conns 2 -out /tmp/loadgen-chaos.json
	$(GO) run ./cmd/benchjson -norun -pr 7 -merge /tmp/loadgen-clean.json -merge /tmp/loadgen-chaos.json

# Chaos sweep: corrupt every registry family with every fault class and
# require both verifiers to catch each corruption, under the race detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestCancel|TestBudget|TestBuildContains|TestDegraded' -v .
	$(GO) test -race ./internal/fault/

# Short fuzz smoke over the differential checker oracle.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzCheckDifferential -fuzztime $(FUZZTIME) ./internal/fault/

check: vet build test race lint bench-test trace-smoke verify-smoke serve-smoke soak-smoke

clean:
	$(GO) clean ./...
