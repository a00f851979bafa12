#!/bin/sh
# CI gate: vet, build, the surface census, the full test suite without
# the race detector, then with it, once each (the selector cache,
# profile snapshots, base-station fan-out pool, repair loop, SLO engine,
# recorder, timeline and the obs instrumentation layer are concurrent
# and must stay race-clean).  -count=1 so cached results never mask a
# freshly introduced race or nondeterminism; the chaos matrix, the
# match-index equivalence harness and the scenario/replay determinism
# tests all run inside both.
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

# Surface census (DESIGN.md §3): every top-level declaration under
# internal/ is reachable from a command, an example or the benchmark,
# or stands in internal/census/allow.txt with its reason.  Prints
# file:line pkg.Name for each one that is neither.
go run ./internal/census

# The non-race run is also where the guards that skip themselves under
# -race (or -short) run — allocation counts and timing budgets the race
# runtime would distort:
#   - repair amplification (DESIGN.md §10): TestRepairReplaysOnlyHoles —
#     a NACK names its holes and the coordinator re-sends at most twice
#     what a seeded lossy link dropped, counted in virtual time;
#   - observability (DESIGN.md §8, §11): TestDisabledPathZeroAllocs,
#     TestEnabledSpanZeroAllocs, TestDisabledOverheadGuard (<5%),
#     TestDefaultCounterFamiliesPreTouched, TestTraceDisabledZeroAllocs,
#     TestTraceDisabledWrapZeroAllocs, TestTraceOverheadGuard (<5%),
#     TestRecordEventDisabledZeroAllocs, the exposition round trip
#     (TestExpositionParserRoundTrip, TestEscapeLabel*,
#     TestLabeledCounterNameConstructorsEscape);
#   - SLO engine (DESIGN.md §13): TestDisabledObserveZeroAllocs,
#     TestEnabledObserveSteadyStateZeroAllocs,
#     TestEnabledObserveOverheadGuard (<5%);
#   - match index (DESIGN.md §12): TestFlatMatchGuard — a constant-size
#     match out of 100k clients costs a bounded ratio of the same match
#     out of 1k;
#   - send-path and match pins (DESIGN.md §14): TestVirtualMulticastAllocs,
#     TestWallZeroDelayAllocs, TestMatchIDsAllocs — the sim-lecture and
#     bs-relay budgets at exactly what the engine allocates;
#   - image path (DESIGN.md §17): TestDecodeSteadyStateAllocs (the coder's
#     working set), TestCollectedRelayPlanePasses (no raster for the
#     image and text tiers, one luma decode per share for the sketch tier);
#   - receive path (DESIGN.md §7): TestParseZeroAllocs, TestMessageAllocs,
#     TestAppendEncodeZeroAllocs, TestKernelReceiveAllocs — the
#     chat-wired allocs_per_delivery budget;
#   - timeline (DESIGN.md §16): TestDisabledPathZeroAllocs,
#     TestSampleZeroAllocs, TestTimelineOverheadGuard (<5%).
go test -count=1 ./...
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
# reassembler (one copy, at completion), the image viewer (collected
# and parked chunks alike) and the coordinator's archive — and the
# simulated network has one send path that copies nothing (the copying
# calls clone, then give).  The per-hand-off copies must not quietly come back; the
# frame-integrity harness (transporttest.Integrity, inside the
# differential, chaos, relay and replay tests above) is what makes
# sharing safe.
copies='append\(\[\]byte\(nil\)|bytes\.Clone\('
viol=$(grep -nE "$copies" \
	internal/message/view.go internal/message/fragment.go internal/apps/imageviewer.go \
	internal/core/coordkernel.go || true)
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

# Fuzz smokes.  The NACK hole list is parsed from untrusted bytes
# (DESIGN.md §10): a short run of the coordinator's packet handler.
go test -run '^$' -fuzz '^FuzzCoordinatorHandlePacket$' -fuzztime 5s ./internal/core/
# So is every frame: the codec's own target holds Parse/View.Message to
# the one-pass decoder they replaced (DESIGN.md §7).
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/message/
# And every collected image stream: the base station relays what the
# header inspector accepts without decoding it, so the inspector is held
# to the decoders it fronts (DESIGN.md §17).
go test -run '^$' -fuzz '^FuzzInspect$' -fuzztime 5s ./internal/wavelet/
# And the two payloads the station decodes off the wire before any of
# that: the image announce and the media object a member uplinks.
go test -run '^$' -fuzz '^FuzzDecodeImageMeta$' -fuzztime 5s ./internal/apps/
go test -run '^$' -fuzz '^FuzzDecodeMediaObject$' -fuzztime 5s ./internal/apps/

# Virtual-time gates (DESIGN.md §14).
#
# Leaf purity: internal/clock and internal/metrics (the one metric
# registry, DESIGN.md §8) are the bottom of the dependency graph — they
# must import nothing from this module, so every layer can take an
# injected clock and report into the registry without cycles.
for pkg in adaptiveqos/internal/clock adaptiveqos/internal/metrics; do
	if go list -deps "$pkg" | grep -x 'adaptiveqos/.*' | grep -qvx "$pkg"; then
		echo "BOUNDARY VIOLATION: $pkg imports repo packages:" >&2
		go list -deps "$pkg" | grep -x 'adaptiveqos/.*' >&2
		exit 1
	fi
done

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
