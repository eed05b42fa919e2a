# Development entry points. `make check` is what CI runs.

GO ?= go

.PHONY: check fmt build vet lint lint-strict test race bench bench-smoke

check: fmt build vet lint test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hwlint runs the project's own analyzers (see internal/lint); -novet because
# the vet target above already ran. Exit codes: 1 means findings, 2 means the
# linter itself failed (load/type-check error or analyzer crash) — CI treats
# both as failures but the distinction shows up in the log.
lint:
	$(GO) run ./cmd/hwlint -novet ./...

# lint-strict is the CI variant: vet included, and every finding (suppressed
# ones too, with reasons) captured as hwlint.json for the build artifact.
lint-strict:
	$(GO) run ./cmd/hwlint -json ./... > hwlint.json

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector; the short timeout
# makes a reintroduced protocol hang (abort/fault-injection tests in core and
# netsim) fail in minutes instead of the 10-minute default. The core package
# run includes the adaptive-switch fault matrix
# (TestInjectedFailuresAbortAdaptiveSwitch): workers killed before, during,
# and after the mid-query switch handshake, on both transports. The cfg and
# callgraph packages ride along without -race (they are single-threaded but
# underpin the analyzers that guard the racy packages, so they belong to the
# same gate).
race:
	$(GO) test -race -timeout=120s ./internal/netsim/ ./internal/par/ ./internal/jen/ ./internal/core/ ./internal/skew/ ./internal/mem/ ./internal/sched/ ./internal/analyzer/
	$(GO) test -race -timeout=300s -run 'TestConcurrent|TestAdaptive|TestStar|TestSnowflake' .
	$(GO) test ./internal/lint/cfg/ ./internal/lint/callgraph/

# Full sweep at one iteration, then the core scan→filter→shuffle→join
# micro-benchmark plus the skewed-shuffle benchmark at measurement length,
# recorded as BENCH_core.json.
bench:
	$(GO) test -bench=. -benchtime=1x ./...
	$(GO) test -run '^$$' -bench 'BenchmarkScanFilterJoin|BenchmarkAdaptiveMispredict|BenchmarkSkewedJoin|BenchmarkConcurrentMixed|BenchmarkStarJoin' -benchtime=3x ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_core.json
	@cat BENCH_core.json

# Benchmark smoke for CI: proves the benchmarks still compile and run, and
# gates rows/s against the committed BENCH_core.json — any benchmark falling
# below 85% of its recorded throughput fails the target. Measured at a higher
# -benchtime than the recording run: a single iteration of the small scale
# finishes in ~10 ms and jitters past the tolerance.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkScanFilterJoin|BenchmarkAdaptiveMispredict|BenchmarkSkewedJoin|BenchmarkConcurrentMixed|BenchmarkStarJoin' -benchtime=10x ./internal/core/ \
		| $(GO) run ./cmd/benchjson -compare BENCH_core.json -tolerance 0.85 > /dev/null
