GO ?= go

.PHONY: all build test race vet census bench ci clean

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

# The surface census: every declaration under internal/ is reachable
# from a program or allowlisted with a reason (DESIGN.md §3).
census:
	$(GO) run ./internal/census

# The benchmark (BENCHMARK.json, bench/README.md): five end-to-end
# workloads plus the per-layer ladder.
bench:
	$(GO) run -C bench .

# The gate a PR must pass: vet, the census (unreached declarations and
# the architecture rules), the full suite with and without the race
# detector, fuzz and command smokes (see ci.sh).
ci:
	./ci.sh

clean:
	$(GO) clean -testcache
