# onocsim build targets. Everything is plain `go` — the Makefile only names
# the common invocations.

GO ?= go

.PHONY: all build vet fmt-check check sweep-smoke test test-race loadtest bench bench-json bench-mem bench-incr report report-csv experiments-md examples clean

all: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints unformatted files; any output fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Static checks plus the golden-file rendering gate: the ASCII output of the
# pinned experiments must stay byte-identical (cmd/expreport/testdata).
check: vet fmt-check sweep-smoke
	$(GO) test ./cmd/expreport/ -run TestGolden -count=1

# End-to-end sweep smoke: a committed micro-grid through the CLI pipeline
# (expand -> analytic prefilter -> prune -> simulate -> Pareto front). The
# tables are discarded; any pipeline regression fails the exit code.
sweep-smoke:
	$(GO) run ./cmd/onocsim -mode sweep -sweep cmd/onocsim/testdata/smoke_sweep.json > /dev/null

# Tier-1 gate: vet runs first so static mistakes fail fast, before the
# (much slower) test sweep; the golden rendering tests run as part of the
# cmd/expreport package.
test: vet
	$(GO) test ./...

# The serial simulators are single-goroutine by design; the race detector
# guards the experiment harness's concurrent study fan-out, the sharded
# conservative-lookahead engine (barrier protocol in internal/sim, shard
# partition/merge in internal/core), the incremental correction loop's
# per-shard checkpoint ladders (capture and restore run inside the shard
# goroutines; internal/core's incremental tests cover every fabric ×
# preset × shard count), the streaming decoders feeding per-shard runners
# (internal/trace sources hand out concurrent passes), the fault
# injector's lazily extended per-channel timelines under sharded replay,
# and the analytic estimator's shared probe cache. The service packages run
# here too: the daemon's whole job is concurrent clients sharing one session
# (single-flight dedup, the admission scheduler, the SSE hub), and the job
# and sweep packages fan hundreds of admission-scheduled arms out of one
# session.
test-race:
	$(GO) test -race ./internal/analytic/ ./internal/experiments/ ./internal/sim/ ./internal/core/ ./internal/fault/ ./internal/trace/ ./internal/service/ ./internal/job/ ./internal/sweep/ ./cmd/onocsimd/ .

# Service load harness: a burst of mixed cost-class requests against an
# in-process daemon, asserting the cache absorbs the burst (flight count,
# not latency — meaningful on noisy hosts) and that drain stays clean.
# Scale the burst with ONOCSIMD_LOAD_CLIENTS.
loadtest:
	ONOCSIMD_LOAD_CLIENTS=$${ONOCSIMD_LOAD_CLIENTS:-64} $(GO) test -race ./internal/service/ -run TestLoadBurst -count=1 -v

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: runs the root-package benchmarks plus
# the engine micro-benchmarks, folds the results into $(BENCH_OUT) against
# the committed $(BENCH_BASE) reference, and fails on a >25% regression so
# earlier PRs' performance wins stay locked in. The suite runs three full
# passes and benchjson collapses repeated lines to each benchmark's fastest
# run: the shared CI host drifts between fast and slow phases lasting
# minutes (±40% swings observed on untouched microbenchmarks), so the
# passes — spread over the whole wall-clock of the run — give every
# benchmark a shot at a fast phase, where `-count=N` repeats land
# back-to-back inside a single phase. Override the variables to
# re-baseline, e.g. `make bench-json BENCH_OUT=tmp.json BENCH_BASE=BENCH_PR6.json`.
# BENCH_TOLERANCE loosens the timing threshold on a noisy host
# (`BENCH_TOLERANCE=40 make bench-json`); the counter gates stay strict.
BENCH_OUT ?= BENCH_PR12.json
BENCH_BASE ?= BENCH_PR10.json
BENCH_TOLERANCE ?= 25
bench-json:
	for i in 1 2 3; do $(GO) test -run '^$$' -bench=. -benchmem . ./internal/sim/ || exit 1; done | $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -baseline $(BENCH_BASE) -maxregress $(BENCH_TOLERANCE)

# Incremental-correction snapshot: just the full-vs-incremental benchmark
# family, folded into $(BENCH_OUT) against $(BENCH_BASE). The gate leans on
# the deterministic counters — the replayed-events metric and allocs/op don't
# move with host load — while the timing threshold stays overridable via
# BENCH_TOLERANCE for noisy hosts.
bench-incr:
	for i in 1 2 3; do $(GO) test -run '^$$' -bench 'SelfCorrectIncremental|SelfCorrection$$' -benchmem . || exit 1; done | $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -baseline $(BENCH_BASE) -maxregress $(BENCH_TOLERANCE)

# Memory-focused snapshot: just the RSS/overhead benchmark family, folded
# into the same $(BENCH_OUT) gate. The max-rss-bytes rows are what pin the
# streaming engines' O(window) residency contract — benchjson collapses the
# three passes to each row's minimum and fails if residency (or time)
# regresses beyond the limit vs $(BENCH_BASE).
bench-mem:
	for i in 1 2 3; do $(GO) test -run '^$$' -bench 'RSS|NaiveReplayStream|NaiveReplayInMemory' -benchmem . || exit 1; done | $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -baseline $(BENCH_BASE) -maxregress $(BENCH_TOLERANCE)

# Regenerate the full evaluation (R1–R20) at paper scale.
report:
	$(GO) run ./cmd/expreport -exp all | tee results_full.txt

report-csv:
	$(GO) run ./cmd/expreport -exp all -format csv

# Markdown rendering of the evaluation via the typed-JSON path — the same
# pipeline that regenerates EXPERIMENTS.md's measured tables.
experiments-md:
	$(GO) run ./cmd/expreport -exp all -format json | $(GO) run ./cmd/mdreport

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/casestudy
	$(GO) run ./examples/sweep
	$(GO) run ./examples/tracefile
	$(GO) run ./examples/designspace

clean:
	$(GO) clean ./...
