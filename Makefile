GO ?= go

.PHONY: all build test race vet bench bench-dispatch bench-json ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent paths (selector cache, profile snapshots, dispatch
# pool, sharded registry, SimNet) must stay race-clean; -count=1 so
# cached results never mask a race.  The same line ci.sh runs.
race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem .

# Just the dispatch fast-path microbenchmarks (DESIGN.md §7).
bench-dispatch:
	$(GO) test -run xxx -benchmem . \
		-bench 'MatchProfile|ProfileFlatten|MessageWrap|BaseStationFanOut'

# Machine-readable micro-benchmark report (BENCH_results.json).
bench-json:
	$(GO) run ./cmd/qosbench -bench

# The gate a PR must pass: vet + full suite + race detector, plus the
# observability zero-alloc and <5%-overhead guards (see ci.sh).
ci:
	./ci.sh

clean:
	$(GO) clean -testcache
