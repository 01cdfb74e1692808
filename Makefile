# collio build/verify entry points. `make check` is the tier-1 gate
# (see ROADMAP.md): compile, vet, the collvet invariant suite, and the
# full test suite under the race detector.

GO ?= go

# bash with pipefail: a failing `go test` on the left of a pipe (bench,
# bench-diff) must fail the target instead of silently dropping rows.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

.PHONY: check build vet collvet test race quarantine bench bench-diff metrics-smoke scale-smoke select-smoke perfbench-smoke

check: build vet collvet quarantine scale-smoke select-smoke metrics-smoke perfbench-smoke race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -time prints per-analyzer wall time so a slow analyzer shows up in
# the gate, not in a profiler session later. Results are cached
# per-package (keyed by source+config hash) under the user cache dir.
collvet:
	$(GO) run ./cmd/collvet -time ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# `make quarantine` reruns the packages that hold pooled handles with
# sim.Pool in quarantine (build tag poolquarantine): Put never recycles,
# so a request, message, transfer or put completion used after its
# release meets its own released state and panics naming the handle,
# even where the next Get would have handed the object out again. The
# allocation and pool-reuse gates measure recycling by design and are
# skipped. Part of `make check` (a few seconds); -count=1 defeats the
# test cache.
quarantine:
	$(GO) test -count=1 -short -tags poolquarantine -skip 'Allocs|ReturnToPool' ./internal/exp ./internal/mpi ./internal/simnet ./internal/simfs ./internal/fcoll

# `make bench` also persists the machine-readable perf trajectory for
# this PR: the raw stream passes through cmd/benchjson into BENCHOUT,
# and when BENCHBASE names a prior BENCH_*.json the per-benchmark deltas
# print to stderr. BENCHTIME=1x (the default) runs every simulation
# benchmark once — enough for the deterministic sim-ms/op numbers; raise
# it to steady wall-clock measurements. The micro-benchmarks of the
# kernel, network, file-system and MPI hot paths (internal/sim, simfs,
# simnet, mpi: AIOWrite, AIORead, their cold-pool AIOWriteCold and
# AIOReadCold, Fluid*, Send, the kernel and ping-pong rows) cost
# microseconds per op, where one iteration measures only warm-up, so
# they always run at -benchtime 1s -count 5; mpi's SetupExchange (the
# collective write's setup collectives at 96 to 4096 ranks) rides in
# the same pass. Rows are keyed by (name, GOMAXPROCS)
# and every committed BENCH_*.json was recorded at GOMAXPROCS=1, so on a
# multi-core host run `GOMAXPROCS=1 make bench` (and bench-diff) or the
# diff finds no shared benchmarks. benchjson folds the repeated rows of
# a `-count N` run into one row per benchmark with the median and
# quartiles of each metric, and diffs on the median. -timeout 30m: the
# exact 4096-rank cells of internal/exp take several minutes each, and
# together they outrun go test's 10-minute default on a loaded host,
# which cut the package off and dropped its remaining rows from the
# record.
#
# Note the division of labour with `make race`: benchmarks and the
# parallel sweep runner (-j) measure throughput, while the race lane
# runs the whole test suite — including the sweep runner's
# parallel-vs-sequential equivalence tests — under the race detector. Perf numbers come from
# bench, concurrency-correctness evidence from race.
BENCHTIME ?= 1x
BENCHOUT ?= BENCH_PR34.json
BENCHBASE ?= BENCH_PR21.json
BENCHDIFF = $(if $(wildcard $(BENCHBASE)),-diff $(BENCHBASE),)

bench:
	{ $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -timeout 30m $$($(GO) list ./... | grep -v -x -e 'collio/internal/sim\(fs\|net\)\?' -e collio/internal/mpi) && \
	  $(GO) test -run '^$$' -bench . -benchmem -benchtime 1s -count 5 ./internal/sim ./internal/simfs ./internal/simnet ./internal/mpi; } | tee /dev/stderr | $(GO) run ./cmd/benchjson $(BENCHDIFF) > $(BENCHOUT)

# `make bench-diff` is the CI-style regression gate: re-run the
# benchmarks and fail non-zero if ns/op regressed beyond BENCHFAIL
# percent against the committed baseline. The ns/op gate covers only
# the long-running end-to-end benchmarks (BENCHGATE, >= 10 s per
# iteration) — shorter benchmarks run a single iteration at
# BENCHTIME=1x and carry far too much wall-clock noise to gate on
# (RunSeries/TableISweep have been observed swinging +-60% between
# otherwise-identical runs on a loaded host), though their deltas still
# print for inspection. The JSON goes to a scratch file so the gate
# never clobbers the committed trajectory.
BENCHFAIL ?= 30
# Allocation counts are deterministic (no wall-clock noise), so the
# allocs/op gate is far tighter than the ns/op one — and it safely
# covers the short benchmarks the ns/op gate must exclude: PR 4's 32%
# alloc win cannot silently erode anywhere.
BENCHALLOCFAIL ?= 5
BENCHGATE ?= ScaleSweep|CohortScale|SelectColdVsWarm|HierarchicalSweep
BENCHALLOCGATE ?= RunSeries|TableISweep|ScaleSweep|CohortScale|SelectColdVsWarm|HierarchicalSweep|SetupExchange

bench-diff:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -timeout 30m ./... | $(GO) run ./cmd/benchjson -diff $(BENCHBASE) -fail-above $(BENCHFAIL) -fail-allocs-above $(BENCHALLOCFAIL) -gate '$(BENCHGATE)' -allocs-gate '$(BENCHALLOCGATE)' > /dev/null

# `make scale-smoke` is the acceptance check for the bundled cohort
# executor's scale path: a 65536-rank IOR collective write on the fluid
# network model must finish inside the test's 10-second wall budget
# (the run itself takes well under a second; the budget absorbs loaded
# hosts). Part of `make check`, since the bundled aggregators run the
# shared fcoll.Drive drivers. -count=1 defeats the test cache — a cached
# PASS proves nothing about this host.
scale-smoke:
	$(GO) test -count=1 -run 'TestScaleSmoke65k' -v ./internal/exp/

# `make select-smoke` is the acceptance check for the auto-tuner's
# memo cache: one cold design-space sweep, then a warm re-query that
# must hit the cache on every grid point, answer bit-identically, and
# come back at least 100x faster than the cold sweep. Part of `make
# check` (it runs in ~2 s); -count=1 defeats the test cache.
select-smoke:
	$(GO) test -count=1 -run 'TestSelectSmoke' -v ./internal/tune/

# `make metrics-smoke` exercises the telemetry surface end to end: one
# small iorbench run with -metrics and -metrics-out, then the .prom
# snapshot is parsed back through cmd/metricsdiff (a self-diff with
# -fail-changed must exit zero, proving the exporter emits what the
# parser reads), and the csv/html artefacts are checked non-empty. A
# collective read with -metrics must report its phase series too: every
# executor emits phases through the one fcoll.Observer path. Part of
# `make check`.
METRICS_SMOKE_DIR = $(or $(TMPDIR),/tmp)/collio-metrics-smoke

metrics-smoke:
	mkdir -p $(METRICS_SMOKE_DIR)
	$(GO) run ./cmd/iorbench -np 8 -runs 1 -metrics -metrics-out $(METRICS_SMOKE_DIR)/run > $(METRICS_SMOKE_DIR)/summary.txt
	$(GO) run ./cmd/metricsdiff -changed -fail-changed $(METRICS_SMOKE_DIR)/run.prom $(METRICS_SMOKE_DIR)/run.prom
	test -s $(METRICS_SMOKE_DIR)/run.csv
	test -s $(METRICS_SMOKE_DIR)/run.html
	grep -q 'fs.chunk_latency_ns' $(METRICS_SMOKE_DIR)/summary.txt
	$(GO) run ./cmd/iorbench -np 8 -runs 1 -read -metrics > $(METRICS_SMOKE_DIR)/read.txt
	grep -q 'phase.read.rank_ns' $(METRICS_SMOKE_DIR)/read.txt

# `make perfbench-smoke` runs the end-to-end benchmark's own tests. The
# perfbench directory is a nested module (it replaces collio with the
# parent checkout), so `go test ./...` at the root never reaches it.
# Its tests run every workload at a tiny size through the same gates as
# the benchmark — byte conservation, pass-to-pass repeatability, layer
# coverage — including read-grid's byte-conservation gate on the
# collective read. Part of `make check` (~15 s);
# -count=1 defeats the test cache.
perfbench-smoke:
	cd perfbench && $(GO) test -count=1 ./...
