#!/bin/sh
# CI gate: gofmt, vet, build, the census (the one static checker), the
# tests without and then with the race detector, fuzz and command smokes.
# An explicit -count, so a cached result never masks a fresh race or
# nondeterminism.
set -eu
fail() { echo "$*" >&2; exit 1; }

if [ -n "$(gofmt -l .)" ]; then
	echo "UNFORMATTED (run gofmt -w):" $(gofmt -l .) >&2
	exit 1
fi
go vet ./...
go build ./...

# Census (DESIGN.md §3): every declaration under internal/ is reached by
# a program or stands in internal/census/allow.txt, and every file keeps
# the architecture rules of internal/census/rules.go.
go run ./internal/census

# Core and base-station tests, the examples and cmd/collab with its
# tests run on virtual time (DESIGN.md §14): no polling, sleep, wall
# SimNet or wall deadline outside the two wall_test.go files.  The census
# neither loads test files nor holds programs to its clock rules, so the
# check is a grep.
if grep -nE 'waitFor|time\.Sleep|NewSimNet|time\.Now\(' internal/core/*_test.go internal/basestation/*_test.go examples/*/main.go cmd/collab/*.go | grep -v '/wall_test\.go:'; then
	echo "WALL TIME OUTSIDE wall_test.go (drive the test's, example's or command's clock.Virtual instead):" >&2
	exit 1
fi
# Every client ticks (core.AdaptInterval), so a virtual clock with one
# on it never drains, and RunUntilIdle(0) there would run until go
# test's timeout: drive a bounded Advance.
if grep -nE 'RunUntilIdle\(0\)' internal/core/*_test.go internal/basestation/*_test.go examples/*/main.go cmd/collab/*.go; then
	echo "RunUntilIdle(0) WHERE CLIENTS TICK (the heap never drains: Advance a bounded span instead):" >&2
	exit 1
fi

# The allocation and overhead guards the race runtime would distort run
# only in the first pass (files tagged !race, or raceDetectorEnabled).
# It runs every test twice in one process: a test that reads a
# process-global (the trace ring, the metric registry) must scope or
# reset what an earlier run left there, and a kept buffer must come out
# of a run as usable as it went in (the station's segments keep theirs
# from share to share).
go test -count=2 ./...
go test -race -count=1 ./...
# At 4 Ps too: most of what runs at once (the base station's two segment
# handlers and its control plane, the virtual clock fed from many
# goroutines, shared free lists and caches) interleaves differently, or
# at all, only with more Ps than a small CI machine has CPUs.
go test -race -count=1 -cpu 4 ./...

# The examples' byte goldens at several GOMAXPROCS: an ordering bug
# between goroutines can hide at one P and show only at two or more.
go test -count=1 -cpu 1,2,4 ./examples/...

# The benchmark is a module of its own: vet and build it here so an API
# change that breaks it fails CI, not the benchmark run, and run its own
# tests: the spec-table checks and a smoke run of every workload's
# oracles (sim-lecture's repeatable event hash and conservation law
# among them).
go -C bench vet ./...
go -C bench build -o /dev/null ./...
go test -C bench -count=1 .

# Fuzz smokes, 5 s each, one per target: the NACK hole list (§10), the
# client kernel's whole receive path and the whole client's past it
# (reception reports, lock notices, the applications), every frame and
# the envelope's fragment reassembly (§7), the RTP header of every data
# body and the sequence numbers and SSRCs the reception statistics
# count, every relayed image stream and both of its decoders (§17), the
# image announce the station relays and the media object a member's
# inbox takes, every selector, the replay policy grid and session
# record (cmd/qosreplay reads both), and the SNMP agent's BER decoder
# (cmd/snmpd reads it off a socket).  Every func Fuzz* under internal/
# is found by the grep, so a new target gets its smoke without a list
# to keep.
for t in $(grep -rnoE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+' internal | sed -E 's#^internal/(.+)/[^/]+:[0-9]+:func #\1:#'); do
	go test -run '^$' -fuzz "^${t#*:}\$" -fuzztime 5s "./internal/${t%%:*}/"
done

# Command smokes, from one build in one scratch directory.  Scale (a
# 10k-client simulated minute, ~1-2s) and replay (the 30-candidate grid
# over the recorded 35%-loss session, ~2s; DESIGN.md §15) run within
# wall-clock budgets that absorb slow CI boxes, and replay must rank a
# repair-enabled policy first.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp" ./cmd/qossim ./cmd/qosreplay
t0=$(date +%s)
"$tmp/qossim" -scenario lecture -clients 10000 -sim-duration 60s >/dev/null
[ $(($(date +%s) - t0)) -le 30 ] || fail "SCALE REGRESSION: 10k-client simulated minute took over 30s"
t0=$(date +%s)
best=$("$tmp/qosreplay" -in internal/replay/testdata/collab-loss35.jsonl -top 1 | awk '$1 == 1')
[ $(($(date +%s) - t0)) -le 10 ] || fail "REPLAY REGRESSION: 30-candidate grid sweep took over 10s"
case "$best" in *repair=off* | "") fail "REPLAY RANKING REGRESSION: top row is not repair-enabled: $best" ;; esac

# Timeline determinism: the same seeded scenario exported twice is
# byte-identical, so any wall-time leak shows up as a diff.
for i in 1 2; do
	"$tmp/qossim" -scenario lecture -clients 1000 -sim-duration 30s -timeline "$tmp/tl-$i.jsonl" >/dev/null
done
cmp "$tmp/tl-1.jsonl" "$tmp/tl-2.jsonl" >&2 || fail "TIMELINE DETERMINISM REGRESSION: same-seed runs exported different timelines"

# Replay determinism: the jittered replay of the recorded session, run
# twice, prints the same JSON, so a repair walk in map order (or any
# other unseeded choice) shows up as a diff; and each run prints the
# checked-in golden, so a change that moves a decision shows as drift.
for i in 1 2; do
	"$tmp/qosreplay" -in internal/replay/testdata/collab-loss35.jsonl -jitter 2ms -json >"$tmp/replay-$i.json"
done
cmp "$tmp/replay-1.json" "$tmp/replay-2.json" >&2 || fail "REPLAY DETERMINISM REGRESSION: same-seed replays printed different results"
for i in 1 2; do
	cmp internal/replay/testdata/collab-loss35-jitter2ms.golden.json "$tmp/replay-$i.json" >&2 ||
		fail "REPLAY DRIFT: run $i differs from internal/replay/testdata/collab-loss35-jitter2ms.golden.json"
done
