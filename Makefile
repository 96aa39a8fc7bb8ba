GO ?= go

.PHONY: build test vet vet-ndbench race lint bench benchdiff smoke allocguard verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cmd/ndbench is a nested module, which the root ./... patterns skip.
# Vetting it compiles it against the root module's current API, so a
# deleted root API that ndbench still uses fails here rather than at
# the next benchmark run. Offline: its only dependency is the root
# module, through a replace directive.
vet-ndbench:
	cd cmd/ndbench && $(GO) vet ./...

race:
	$(GO) test -race ./...

# Project-invariant static analysis (see "Enforced invariants" in
# DESIGN.md). Exit 1 means findings; fix them or suppress in place with
# an //ndlint:ignore <analyzer> <reason> comment. Every run analyzes the
# whole module from source (a few seconds); nothing is cached.
lint:
	$(GO) run ./cmd/ndlint ./...

# Reduced-scale benchmark sweep, including the parallelism comparisons.
# The results also land in BENCH_pipeline.json (machine-readable, for CI
# diffing) via cmd/benchjson. The text output is captured first so a
# failing `go test` fails the target instead of vanishing into a pipe.
# The Reconverge cold-vs-incremental pairs re-run at higher iteration
# counts: the "incremental" section's warm_speedup compares microsecond-
# scale operations, which a single 1x sample cannot resolve. The stream
# ingest / event-loop benchmarks re-run likewise so the "stream"
# section's throughput, event-lag and dirty-pair-fraction metrics come
# from a multi-iteration sample. benchjson writes each benchmark once,
# as its highest-iteration sample.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./... > BENCH_pipeline.txt || (cat BENCH_pipeline.txt; rm -f BENCH_pipeline.txt; exit 1)
	$(GO) test -run xxx -bench 'BenchmarkReconverge(Cold|Incremental)' -benchtime 200x ./internal/netsim/ >> BENCH_pipeline.txt || (cat BENCH_pipeline.txt; rm -f BENCH_pipeline.txt; exit 1)
	$(GO) test -run xxx -bench 'BenchmarkIngest|BenchmarkEventLoop' -benchtime 10x ./internal/stream/ >> BENCH_pipeline.txt || (cat BENCH_pipeline.txt; rm -f BENCH_pipeline.txt; exit 1)
	@cat BENCH_pipeline.txt
	$(GO) run ./cmd/benchjson -o BENCH_pipeline.json < BENCH_pipeline.txt
	@rm -f BENCH_pipeline.txt

# Re-run the benchmark sweep and diff it against the committed
# BENCH_pipeline.json: exits non-zero when any benchmark's ns/op regressed
# by more than the threshold. 1x runs on a shared single-core container
# are noisy, hence the wide margin — catch order-of-magnitude regressions,
# not jitter.
benchdiff:
	$(GO) test -run xxx -bench . -benchtime 1x ./... > BENCH_diff.txt || (cat BENCH_diff.txt; rm -f BENCH_diff.txt; exit 1)
	$(GO) run ./cmd/benchjson -o BENCH_diff.json < BENCH_diff.txt
	@rm -f BENCH_diff.txt
	$(GO) run ./cmd/benchjson -compare -threshold 300 BENCH_pipeline.json BENCH_diff.json || (rm -f BENCH_diff.json; exit 1)
	@rm -f BENCH_diff.json

# End-to-end service checks: build the real ndserve binary, start it on a
# random port, diagnose over HTTP (single server, then a sharded fleet),
# turn ingested BGP records into a diagnosed /v1/events entry, and drain
# every process with SIGTERM.
smoke:
	$(GO) test -run TestSmoke -count=1 ./cmd/ndserve

# Zero-allocation guards: the uninstrumented telemetry path (disabled-
# handle hot-loop benchmarks, including the trace-plumbed variant) and the
# bitset greedy scoring kernels (scanBest / accumDelta / retireSets as the
# greedy loop composes them) must report exactly 0 allocs/op.
allocguard:
	$(GO) test -run xxx -bench 'BenchmarkHotLoopDisabled' -benchtime 100x ./internal/telemetry/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkHotLoopDisabled'
	$(GO) test -run xxx -bench 'BenchmarkGreedyScoreKernel' -benchtime 100x ./internal/core/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkGreedyScoreKernel'

# The full verify loop: tier-1 (build + test) plus vet (the root module
# and the ndbench module), the project linter, the race detector, the
# service smoke test and the telemetry alloc guard. Run before every
# commit.
verify: build vet vet-ndbench lint test race smoke allocguard
