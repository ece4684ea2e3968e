# Contributor and CI entry points.  CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs reproduce CI verbatim.

GO ?= go

# Coverage floor (percent) enforced on the serving-engine packages and the
# query-family packages it wires in (actual coverage ~90%).
COVER_FLOOR ?= 70
COVER_PKGS  ?= ./internal/approx ./internal/engine ./internal/rankagg \
               ./internal/cluster ./internal/aggregate ./internal/spj \
               ./internal/setconsensus ./internal/distrib ./internal/genfunc \
               ./internal/andxor

# Fixed benchtime so bench.json artifacts are comparable across commits.
BENCHTIME ?= 20x

.PHONY: all build test race bench bench-json bench-compare bench-compare-base bench-baseline lint fmt cover fuzz vulncheck cluster-smoke perfbench-test loc loc-compare-base

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Net non-test Go line count of the root module (perfbench/ is its own
# module and is excluded), the size figure a subtraction change reports.
LOC_COUNT = find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench-base/*' -exec cat {} + | wc -l
loc:
	@$(LOC_COUNT) | awk '{print "non-test Go lines:", $$1}'

# The same count at BENCH_BASE_REF, read from git's object store (no
# worktree) with loc's filter, next to the checkout's count and the net
# delta.  It only reports: an unresolvable ref prints a note, never fails.
loc-compare-base:
	@if ! git rev-parse -q --verify '$(BENCH_BASE_REF)^{commit}' >/dev/null; then \
		echo "loc-compare-base: cannot resolve $(BENCH_BASE_REF), nothing to compare"; exit 0; \
	fi; \
	base=$$(git ls-tree -r --name-only '$(BENCH_BASE_REF)' | \
		grep '\.go$$' | grep -v '_test\.go$$' | grep -v '^perfbench/' | \
		while IFS= read -r f; do git cat-file blob '$(BENCH_BASE_REF)':"$$f"; done | wc -l); \
	head=$$($(LOC_COUNT)); \
	echo "non-test Go lines: base $$base ($(BENCH_BASE_REF)), head $$head, delta $$((head - base))"

# Benchmark smoke: one iteration of every benchmark, no tests (-run XXX),
# proving the bench harness itself stays green without burning CI minutes.
# -short skips the deliberately slow exact large-tree baseline; drop it
# locally to measure the exact-vs-approx acceptance ratio.
bench:
	$(GO) test -short -run XXX -bench . -benchtime 1x ./...

# Benchmark regression tracking: run the engine, genfunc-kernel and topk
# consensus-step benchmarks (the convolution microbenchmarks ride along;
# topk's footrule benchmark pairs the row-based cost matrix with its
# map-based legacy oracle) with a fixed
# -benchtime and emit both the raw benchstat-compatible text (bench.txt)
# and a parsed bench.json; CI uploads both as artifacts on pushes to main
# so the perf trajectory accumulates.
# (No pipe here: a redirect keeps `go test`'s exit status visible to make,
# so a panicking benchmark fails the target instead of shipping a partial
# artifact.)
BENCH_JSON_PKGS ?= ./internal/engine ./internal/genfunc ./internal/topk
bench-json:
	$(GO) test -short -run XXX -bench . -benchtime $(BENCHTIME) -count 1 $(BENCH_JSON_PKGS) > bench.txt
	cat bench.txt
	$(GO) run ./cmd/benchjson -in bench.txt -out bench.json

# Benchmark regression gate: re-run the fixed-benchtime suite and fail on
# any benchmark more than BENCH_THRESHOLD slower than the committed
# baseline.  Refresh the baseline with `make bench-baseline` when a PR
# legitimately changes performance.  BENCH_MINTIME is the measured-time
# floor below which a benchmark's sample is treated as noise (reported,
# never gated): at the fixed 20-iteration benchtime, sub-microsecond
# benchmarks fluctuate far beyond any honest threshold.
BENCH_THRESHOLD ?= 1.20
BENCH_MINTIME ?= 100us
bench-compare: bench-json
	$(GO) run ./cmd/benchjson compare BENCH_baseline.json bench.json -threshold $(BENCH_THRESHOLD) -mintime $(BENCH_MINTIME)

# Same-machine benchmark gate: benchmark BENCH_BASE_REF and the current
# checkout inside one machine/process and compare those two runs, so the
# gate is immune to the committed baseline's machine dependence (the CI
# bench-samemachine job passes the PR's base commit here).  The base run
# happens in a throwaway git worktree with the base ref's own Makefile.
BENCH_BASE_REF ?= origin/main
bench-compare-base:
	rm -rf .bench-base bench_base.json
	git worktree add --force --detach .bench-base $(BENCH_BASE_REF)
	st=0; ( cd .bench-base && $(MAKE) bench-json ) || st=$$?; \
	cp .bench-base/bench.json bench_base.json || st=$$?; \
	git worktree remove --force .bench-base; exit $$st
	$(MAKE) bench-json
	$(GO) run ./cmd/benchjson compare bench_base.json bench.json -threshold $(BENCH_THRESHOLD) -mintime $(BENCH_MINTIME)

# Refresh the committed baseline from a fresh fixed-benchtime run.
bench-baseline: bench-json
	cp bench.json BENCH_baseline.json

# Coverage gate: the serving packages (engine, adaptive backend, cluster
# tier) and the tree and kernel packages they patch in place must stay
# above the floor, so new serving and mutation code lands with tests.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(COVER_FLOOR)) }" || { \
		echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Fuzz smoke: short randomized runs of the HTTP request-decoding target,
# the coordinator's cluster-admin endpoints, the write-ahead-log replay
# path (committed seeds cover torn tails and corrupted checksums), and
# the two kernel differentials — a patched program against a cold
# compile of the mutated tree, and the compiled kernel against the
# reference evaluators — enough to catch decode/validation/recovery
# panics and stale mutation state without burning CI time.
fuzz:
	$(GO) test ./internal/engine -run XXX -fuzz FuzzHandlerQuery -fuzztime 10s
	$(GO) test ./internal/distrib -run XXX -fuzz FuzzClusterAdmin -fuzztime 10s
	$(GO) test ./internal/distrib -run XXX -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/genfunc -run XXX -fuzz FuzzApplyDelta -fuzztime 10s
	$(GO) test ./internal/genfunc -run XXX -fuzz FuzzCompiledKernel -fuzztime 10s

# Distributed-tier smoke: one durable coordinator over three loopback
# workers cross-checked byte-for-byte against a single-process server on
# the six consensus query families, then a coordinator kill-and-restart
# from its write-ahead log (recovered responses must stay byte-identical),
# then a worker kill mid-read-stream with zero allowed failures (see
# cmd/clustersmoke).
cluster-smoke:
	$(GO) run ./cmd/clustersmoke

# The serving benchmark (perfbench/) is its own module, outside ./...,
# so the root targets never vet or test it.  Run both in the environment
# perfbench/run.sh builds it with: local toolchain, no module proxy, no
# workspace, no inherited flags.
PERFBENCH_ENV = GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
perfbench-test:
	$(PERFBENCH_ENV) $(GO) -C perfbench vet ./...
	$(PERFBENCH_ENV) $(GO) -C perfbench test ./...

lint:
	@fmt_out="$$(gofmt -l .)"; \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# Known-vulnerability scan.  Fetches govulncheck at a pinned version, so
# this target needs network access (CI always has it; offline local runs
# can skip it).
GOVULNCHECK_VERSION ?= v1.1.4
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

fmt:
	gofmt -w .
