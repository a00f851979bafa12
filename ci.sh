#!/bin/sh
# CI gate: vet, build, full test suite, then the race detector over
# every package, once (the selector cache, profile snapshots,
# base-station fan-out pool, repair loop, SLO engine, recorder,
# timeline and the obs instrumentation layer are concurrent and must
# stay race-clean).  -count=1 so cached results never mask a freshly
# introduced race or nondeterminism; the chaos matrix, the match-index
# equivalence harness and the scenario/replay determinism tests all
# run inside it.  The non-race guards further down are the tests that
# skip themselves under -race (allocation counts, timing budgets).
set -eu

# Formatting: gofmt must have nothing to say about any file, the
# benchmark module's included.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "UNFORMATTED (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race -count=1 ./...

# The benchmark is a module of its own (bench/go.mod replaces this one
# by ../), so the commands above do not see it.  Vet and build it here
# so an API change that breaks it fails CI, not the benchmark run.
go -C bench vet ./...
go -C bench build -o /dev/null ./...

# Package-boundary gate (layered broker, DESIGN.md §9): the membership
# registry and the dispatch pipeline are deliberately ignorant of media
# formats and radio physics.  Fail if either layer grows a dependency
# on internal/media or internal/radio.
for pkg in adaptiveqos/internal/registry adaptiveqos/internal/dispatch; do
	deps=$(go list -deps "$pkg")
	for banned in adaptiveqos/internal/media adaptiveqos/internal/radio; do
		if echo "$deps" | grep -qx "$banned"; then
			echo "BOUNDARY VIOLATION: $pkg depends on $banned" >&2
			exit 1
		fi
	done
done

# Kernel gates (DESIGN.md §3, §15).
#
# Sans-IO purity: the receive kernels take packets, time and a conn and
# give back effects.  No go statement, no channel type, make, send,
# receive or select, and no reach for the wall clock (clock.Wall, or
# clock.Or's nil-means-wall default) may appear in their source — the
# shells in core.go/coordinator.go own all of that.  The frame view and
# the intern table the kernels read every datagram through (DESIGN.md
# §7) are held to the same rule.
viol=$(grep -nE '^[[:space:]]*go[[:space:]]|(^|[^[:alnum:]_])chan([^[:alnum:]_]|$)|<-|(^|[^[:alnum:]_])select[[:space:]]*\{|clock\.(Wall|Or)([^[:alnum:]_]|$)' \
	internal/core/kernel.go internal/core/coordkernel.go internal/core/nack.go \
	internal/message/view.go internal/message/intern.go || true)
if [ -n "$viol" ]; then
	echo "KERNEL PURITY VIOLATION: goroutine, channel or wall clock in a sans-IO kernel:" >&2
	echo "$viol" >&2
	exit 1
fi

# Buffer ownership (DESIGN.md §7.1): a received datagram is immutable
# and is retained, not copied — by the message body, the fragment
# reassembler (one copy, at completion), the image viewer, the parked
# collections and the coordinator's archive — and the simulated network
# has one send path that copies nothing (the copying calls clone, then
# give).  The per-hand-off copies must not quietly come back; the
# frame-integrity harness (transporttest.Integrity, inside the
# differential, chaos, relay and replay tests above) is what makes
# sharing safe.
copies='append\(\[\]byte\(nil\)|bytes\.Clone\('
viol=$(grep -nE "$copies" \
	internal/message/view.go internal/message/fragment.go internal/apps/imageviewer.go \
	internal/core/coordkernel.go internal/registry/collections.go || true)
if [ -n "$viol" ]; then
	echo "OWNERSHIP VIOLATION: a receive-path hand-off copies the bytes it is given again:" >&2
	echo "$viol" >&2
	exit 1
fi
if [ "$(grep -cE "$copies" internal/transport/engine.go)" != 2 ]; then
	echo "OWNERSHIP VIOLATION: internal/transport/engine.go must copy a frame in Multicast and Unicast and nowhere else:" >&2
	grep -nE "$copies" internal/transport/engine.go >&2
	exit 1
fi

# Replay fidelity: the simulator must run the real kernels, and the
# private frame codec, order tracker and coordinator it used to carry
# must not quietly come back.
if ! go list -deps adaptiveqos/internal/replay | grep -qx 'adaptiveqos/internal/core'; then
	echo "FIDELITY VIOLATION: internal/replay no longer depends on internal/core" >&2
	exit 1
fi
viol=$(grep -nE 'func (encodeData|decodeData|encodeNack)|type tracker|coordHandler' internal/replay/*.go || true)
if [ -n "$viol" ]; then
	echo "FIDELITY VIOLATION: internal/replay grew a private receive model again:" >&2
	echo "$viol" >&2
	exit 1
fi

# Repair amplification (DESIGN.md §10): a NACK names its holes and the
# coordinator answers from its per-sender index, so what it re-sends is
# what was lost — at most twice as many frames on a seeded lossy link,
# not the sender's whole suffix per NACK.  The test runs the kernels on
# the discrete-event net in virtual time, so this is a count, not a
# wall-clock smoke.  The hole list is parsed from untrusted bytes: a
# short fuzz run of the coordinator's packet handler rides along.
if ! go test -count=1 -run '^TestRepairReplaysOnlyHoles$' ./internal/core/; then
	echo "REPAIR AMPLIFICATION: the coordinator replays more than the holes a NACK names" >&2
	exit 1
fi
go test -run '^$' -fuzz '^FuzzCoordinatorHandlePacket$' -fuzztime 5s ./internal/core/
# So is every frame: the codec's own target holds Parse/View.Message to
# the one-pass decoder they replaced (DESIGN.md §7).
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/message/
# And every collected image stream: the base station relays what the
# header inspector accepts without decoding it, so the inspector is held
# to the decoders it fronts (DESIGN.md §17).
go test -run '^$' -fuzz '^FuzzInspect$' -fuzztime 5s ./internal/wavelet/

# Observability-layer gates (tentpole contract, DESIGN.md §8):
# instrumentation must be near-free when disabled — zero allocations
# on the disabled path and under 5% timing overhead versus the
# uninstrumented workload.
go test -count=1 -run 'TestDisabledPathZeroAllocs|TestEnabledSpanZeroAllocs' ./internal/obs/
go test -count=1 -run TestDisabledOverheadGuard -v ./internal/obs/

# Flight-recorder gate (DESIGN.md §11): every default counter family
# is exported from the first scrape, before any traffic touches it.
go test -count=1 -run TestDefaultCounterFamiliesPreTouched ./internal/metrics/

# Disabled tracing must stay zero-alloc, and enabling it must cost
# under 5% on the dispatch-representative workload (non-race: the race
# runtime distorts timing, the guards skip themselves under -race).
go test -count=1 -run 'TestTraceDisabledZeroAllocs|TestTraceDisabledWrapZeroAllocs' ./internal/obs/ ./internal/message/
go test -count=1 -run TestTraceOverheadGuard -v ./internal/obs/

# SLO-engine and session-recorder gates (DESIGN.md §13): the
# disabled paths must stay zero-alloc, and enabled SLO evaluation must
# cost under 5% on a per-message unit of work (non-race: the timing
# guard skips itself under -race, like the other guards).
go test -count=1 -run 'TestDisabledObserveZeroAllocs|TestEnabledObserveSteadyStateZeroAllocs' ./internal/slo/
go test -count=1 -run TestRecordEventDisabledZeroAllocs ./internal/obs/
go test -count=1 -run TestEnabledObserveOverheadGuard -v ./internal/slo/
go test -count=1 -run 'TestExpositionParserRoundTrip|TestEscapeLabel|TestUnescapeLabel|TestLabeledCounterNameConstructorsEscape' ./internal/obs/ ./internal/metrics/

# Match-index gate (DESIGN.md §12): the scaling contract must hold:
# with the index on, matching a constant-size subset out of 100k
# clients costs within a bounded ratio of the same match over 1k
# (non-race: the guard skips itself under -race, like the timing
# guards above).
go test -count=1 -run TestFlatMatchGuard -v ./internal/registry/

# Virtual-time gates (DESIGN.md §14).
#
# Clock purity: internal/clock is the bottom of the dependency graph —
# it must import nothing from this module, so every layer can take an
# injected clock without cycles.
if go list -deps adaptiveqos/internal/clock | grep -x 'adaptiveqos/.*' | grep -qvx 'adaptiveqos/internal/clock'; then
	echo "BOUNDARY VIOLATION: internal/clock imports repo packages:" >&2
	go list -deps adaptiveqos/internal/clock | grep -x 'adaptiveqos/.*' >&2
	exit 1
fi

# Scheduling ban: no production package outside internal/clock may call
# the stdlib scheduling primitives directly — everything goes through an
# injected clock.Clock so runs are reproducible on clock.Virtual.
# time.Now / formatting are allowed; tests and examples are exempt.
viol=$(grep -rn --include='*.go' -E 'time\.(After|AfterFunc|NewTicker|NewTimer|Sleep|Tick)\(' internal/ cmd/ \
	| grep -v '^internal/clock/' | grep -v '_test\.go' || true)
if [ -n "$viol" ]; then
	echo "SCHEDULING VIOLATION: raw time scheduling outside internal/clock:" >&2
	echo "$viol" >&2
	exit 1
fi

# Clock-seam purity: raw time.Now() in production code bypasses the
# injected clock and silently de-synchronizes recorded sessions from
# replay.  Only internal/clock itself and the documented obs wall
# default (internal/obs/clock.go nowNS) may read the wall directly;
# tests are exempt.
viol=$(grep -rn --include='*.go' 'time\.Now()' internal/ cmd/ \
	| grep -v '^internal/clock/' | grep -v '^internal/obs/clock\.go:' \
	| grep -v '_test\.go' || true)
if [ -n "$viol" ]; then
	echo "CLOCK-SEAM VIOLATION: raw time.Now() outside internal/clock (route through an injected clock.Clock):" >&2
	echo "$viol" >&2
	exit 1
fi

# Simulated-network send-path allocation pins (DESIGN.md §14): the
# sim-lecture and bs-relay benchmark budgets, held in go test at
# exactly what the engine allocates for a given frame and for a copied
# one (the file is excluded under -race).  With them the indexed
# match's pin: one result slice per MatchIDs in a 256-member cell.
go test -count=1 -run 'TestVirtualMulticastAllocs|TestWallZeroDelayAllocs|TestMatchIDsAllocs' ./internal/transport/ ./internal/registry/

# Wavelet coder working-set pin (DESIGN.md §17): a steady-state Decode
# allocates the raster and little else — the image-tiered benchmark's
# alloc_bytes_per_delivery budget, held in go test (the file is
# excluded under -race).
go test -count=1 -run TestDecodeSteadyStateAllocs ./internal/wavelet/
# Collected-image relay plane passes (DESIGN.md §17): no raster for the
# image and text tiers, one luma decode per share for the sketch tier
# however many members sit in it (same exclusion).
go test -count=1 -run TestCollectedRelayPlanePasses ./internal/basestation/

# Receive-path allocation pins (DESIGN.md §7): Parse and a view's reads
# allocate nothing, a materialised chat line three times (its body is
# the frame's), AppendEncode nothing; through Kernel.HandlePacket a
# filtered frame, the endpoint's own echo and a repair-mode duplicate
# cost no allocation and an admitted Say three — the chat-wired
# allocs_per_delivery budget, held in go test (the files are excluded
# under -race).
go test -count=1 -run 'TestParseZeroAllocs|TestMessageAllocs|TestAppendEncodeZeroAllocs|TestKernelReceiveAllocs' ./internal/message/ ./internal/core/

# Scale smoke: a 10k-client simulated minute must complete within 30s
# of wall clock (it takes ~1-2s; the margin absorbs slow CI boxes).
go build -o /tmp/qossim-ci ./cmd/qossim
t0=$(date +%s)
/tmp/qossim-ci -scenario lecture -clients 10000 -sim-duration 60s >/dev/null
t1=$(date +%s)
rm -f /tmp/qossim-ci
if [ $((t1 - t0)) -gt 30 ]; then
	echo "SCALE REGRESSION: 10k-client simulated minute took $((t1 - t0))s (budget 30s)" >&2
	exit 1
fi

# Replay smoke (DESIGN.md §15): the full 30-candidate grid over the
# checked-in recorded 35%-loss collab session must finish within 10s
# of wall clock (it takes ~2s; the margin absorbs slow CI boxes) and
# must rank a repair-enabled policy first.
go build -o /tmp/qosreplay-ci ./cmd/qosreplay
t0=$(date +%s)
best=$(/tmp/qosreplay-ci -in internal/replay/testdata/collab-loss35.jsonl -top 1 | awk '$1 == 1 { print }')
t1=$(date +%s)
rm -f /tmp/qosreplay-ci
if [ $((t1 - t0)) -gt 10 ]; then
	echo "REPLAY REGRESSION: 30-candidate grid sweep took $((t1 - t0))s (budget 10s)" >&2
	exit 1
fi
case "$best" in
*repair=off*)
	echo "REPLAY RANKING REGRESSION: repair-off policy won on the 35%-loss session:" >&2
	echo "$best" >&2
	exit 1
	;;
"")
	echo "REPLAY SMOKE: no ranked rows in qosreplay output" >&2
	exit 1
	;;
esac

# Windowed-timeline gates (DESIGN.md §16): the disabled path and
# enabled steady-state sampling must stay zero-alloc; and an enabled
# timeline must cost under 5% on the counter+histogram hot path
# (non-race: the timing guard skips itself under -race, like the other
# guards).
go test -count=1 -run 'TestDisabledPathZeroAllocs|TestSampleZeroAllocs' ./internal/timeline/
go test -count=1 -run TestTimelineOverheadGuard -v ./internal/timeline/

# Timeline determinism gate: the same seeded lecture scenario exported
# twice must produce byte-identical JSONL timelines — window bounds,
# counter deltas, rates and windowed quantiles all ride the virtual
# clock, so any wall-time leak shows up as a byte diff here.
go build -o /tmp/qossim-ci ./cmd/qossim
/tmp/qossim-ci -scenario lecture -clients 1000 -sim-duration 30s -timeline /tmp/aqos-tl-1.jsonl >/dev/null
/tmp/qossim-ci -scenario lecture -clients 1000 -sim-duration 30s -timeline /tmp/aqos-tl-2.jsonl >/dev/null
rm -f /tmp/qossim-ci
if ! cmp -s /tmp/aqos-tl-1.jsonl /tmp/aqos-tl-2.jsonl; then
	echo "TIMELINE DETERMINISM REGRESSION: same-seed runs exported different timelines" >&2
	diff /tmp/aqos-tl-1.jsonl /tmp/aqos-tl-2.jsonl | head -10 >&2
	rm -f /tmp/aqos-tl-1.jsonl /tmp/aqos-tl-2.jsonl
	exit 1
fi
rm -f /tmp/aqos-tl-1.jsonl /tmp/aqos-tl-2.jsonl
