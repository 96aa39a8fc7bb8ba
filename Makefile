GO ?= go

.PHONY: build fmt test test-ndbench vet vet-ndbench race lint bench benchdiff smoke allocguard verify

build:
	$(GO) build ./...

# gofmt must list no Go file outside testdata/ directories (the lint
# fixtures' layout is golden data) and hidden directories such as the
# benchmark's build output. It covers the nested cmd/ndbench module.
# gofmt is the one in the GO toolchain's GOROOT, and the target
# fails when gofmt itself fails (missing binary, unparsable file).
fmt:
	@out=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# cmd/ndbench's own tests (about 20 s). Its smoke byte-compares the
# served /v1/events and diagnose bodies with a direct replay, so a
# serving-tier break fails here rather than at the next benchmark run.
test-ndbench:
	cd cmd/ndbench && $(GO) test ./...

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

# The benchmark sweep of record, shared by bench and benchdiff: every
# benchmark in one go test pass, three samples of at least 100 ms each,
# so each row times its own operation over many iterations and carries a
# median with a min-max spread. Reduced-scale, including the parallelism
# comparisons.
BENCH_SWEEP = $(GO) test -run '^$$' -bench . -benchtime 100ms -count 3 ./...

# Run the sweep and write BENCH_pipeline.json (machine-readable, for CI
# diffing) via cmd/benchjson, which folds each benchmark's samples into
# one row and adds the derived ratios. The text output is captured first
# so a failing `go test` fails the target instead of vanishing into a
# pipe.
bench:
	$(BENCH_SWEEP) > BENCH_pipeline.txt || (cat BENCH_pipeline.txt; rm -f BENCH_pipeline.txt; exit 1)
	@cat BENCH_pipeline.txt
	$(GO) run ./cmd/benchjson -o BENCH_pipeline.json < BENCH_pipeline.txt
	@rm -f BENCH_pipeline.txt

# Re-run the same sweep and diff it against the committed
# BENCH_pipeline.json: exits non-zero when any row's or derived value's
# median left its noise band, i.e. is more than 2x worse than the old
# worst sample or 4x worse than the old median.
benchdiff:
	$(BENCH_SWEEP) > BENCH_diff.txt || (cat BENCH_diff.txt; rm -f BENCH_diff.txt; exit 1)
	$(GO) run ./cmd/benchjson -o BENCH_diff.json < BENCH_diff.txt
	@rm -f BENCH_diff.txt
	$(GO) run ./cmd/benchjson -compare BENCH_pipeline.json BENCH_diff.json || (rm -f BENCH_diff.json; exit 1)
	@rm -f BENCH_diff.json

# End-to-end service checks: build the real ndserve binary, start it on a
# random port, diagnose over HTTP (single server, then a sharded fleet),
# turn ingested BGP records into a diagnosed /v1/events entry, and drain
# every process with SIGTERM.
smoke:
	$(GO) test -run TestSmoke -count=1 ./cmd/ndserve

# Zero-allocation guards: the uninstrumented telemetry path (disabled-
# handle hot-loop benchmarks, including the trace-plumbed variant), the
# bitset greedy scoring kernels (scanBest / accumDelta / retireSets as the
# greedy loop composes them), one traceroute forwarding step, one
# IP-to-AS table hit, one single-source SPF into a reused row and one
# BGP worklist drain over every router of a converged prefix must report
# exactly 0 allocs/op.
allocguard:
	$(GO) test -run xxx -bench 'BenchmarkHotLoopDisabled' -benchtime 100x ./internal/telemetry/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkHotLoopDisabled'
	$(GO) test -run xxx -bench 'BenchmarkGreedyScoreKernel' -benchtime 100x ./internal/core/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkGreedyScoreKernel'
	$(GO) test -run xxx -bench 'BenchmarkForward' -benchtime 100x ./internal/netsim/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkForward'
	$(GO) test -run xxx -bench 'BenchmarkLookup' -benchtime 100x ./internal/ip2as/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkLookup'
	$(GO) test -run xxx -bench '^BenchmarkSPF$$' -benchtime 100x ./internal/igp/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkSPF'
	$(GO) test -run xxx -bench 'BenchmarkConfirmFixpoint' -benchtime 100x ./internal/bgp/ | $(GO) run ./cmd/benchjson -allocguard '^BenchmarkConfirmFixpoint'

# The full verify loop: tier-1 (build + test) plus the gofmt gate, vet
# (the root module and the ndbench module), the project linter, the
# ndbench tests, the race detector, the service smoke test and the
# alloc guards. Run before every commit.
verify: build fmt vet vet-ndbench lint test test-ndbench race smoke allocguard
