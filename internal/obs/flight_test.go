package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adaptiveqos/internal/metrics"
)

// withTracing runs the body with the flight recorder on and restores a
// clean disabled state (flag off, store cleared) afterwards.
func withTracing(t *testing.T, body func()) {
	t.Helper()
	SetTraceEnabled(true)
	t.Cleanup(func() {
		SetTraceEnabled(false)
		ResetFlight()
	})
	ResetFlight()
	body()
}

func TestFlightDisabledIsInert(t *testing.T) {
	SetTraceEnabled(false)
	ResetFlight()
	AppendHop(1, "n", StagePublish)
	MergeHops(1, []Hop{{Node: "n", Stage: StagePublish}})
	if got := Hops(1); got != nil {
		t.Fatalf("disabled recorder stored hops: %v", got)
	}
	if blob := AppendWireTrace(nil, 1); len(blob) != 0 {
		t.Fatalf("disabled recorder marshaled a blob: %x", blob)
	}
	if id, ok := MergeWireTrace([]byte{1, 2, 3}); ok || id != 0 {
		t.Fatal("disabled recorder merged a wire blob")
	}
}

func TestFlightAppendAndTimeline(t *testing.T) {
	withTracing(t, func() {
		id := MsgID("wired-0", 1)
		AppendHop(id, "wired-0", StagePublish)
		AppendHop(id, "wired-0", StageFragment)
		AppendHop(id, "wired-1", StageMatch)
		AppendHop(id, "wired-1", StageDeliver)
		hops := Hops(id)
		if len(hops) != 4 {
			t.Fatalf("got %d hops, want 4: %v", len(hops), hops)
		}
		if hops[0].Stage != StagePublish || hops[0].Node != "wired-0" {
			t.Errorf("first hop = %+v", hops[0])
		}
		for i := 1; i < len(hops); i++ {
			if hops[i].DeltaUS < hops[i-1].DeltaUS {
				t.Errorf("deltas not monotonic: %v", hops)
			}
		}
		tl, ok := Timeline(id)
		if !ok || len(tl) != 4 {
			t.Fatalf("Timeline = %v, %v", tl, ok)
		}
		if tl[len(tl)-1].Stage != StageDeliver {
			t.Errorf("timeline tail = %+v", tl[len(tl)-1])
		}
		sums := TraceSummaries(0)
		if len(sums) != 1 || sums[0].ID != id || !sums[0].Complete() {
			t.Errorf("TraceSummaries = %+v", sums)
		}
	})
}

func TestFlightE2EHistograms(t *testing.T) {
	withTracing(t, func() {
		dBefore := e2eDeliverHist.Snapshot().Count
		tBefore := e2eTransformHist.Snapshot().Count
		hBefore := e2eHopCountHist.Snapshot().Count
		id := MsgID("e2e-sender", 9)
		AppendHop(id, "a", StagePublish)
		AppendHop(id, "bs", StageTransform)
		AppendHop(id, "b", StageDeliver)
		if got := e2eDeliverHist.Snapshot().Count; got != dBefore+1 {
			t.Errorf("deliver hist count %d -> %d", dBefore, got)
		}
		if got := e2eTransformHist.Snapshot().Count; got != tBefore+1 {
			t.Errorf("transform hist count %d -> %d", tBefore, got)
		}
		if got := e2eHopCountHist.Snapshot().Count; got != hBefore+1 {
			t.Errorf("hop-count hist count %d -> %d", hBefore, got)
		}

		// A trace not rooted at publish must not feed the e2e set.
		id2 := MsgID("e2e-sender", 10)
		AppendHop(id2, "b", StageMatch)
		AppendHop(id2, "b", StageDeliver)
		if got := e2eDeliverHist.Snapshot().Count; got != dBefore+1 {
			t.Errorf("non-publish-rooted trace fed deliver hist: %d", got)
		}
	})
}

func TestFlightWireRoundTrip(t *testing.T) {
	withTracing(t, func() {
		id := MsgID("rt", 1)
		AppendHop(id, "sender-node", StagePublish)
		AppendHop(id, "sender-node", StageFragment)
		blob := AppendWireTrace(nil, id)
		if len(blob) == 0 {
			t.Fatal("no blob for trace with hops")
		}
		gotID, hops, err := UnmarshalWireTrace(blob)
		if err != nil || gotID != id {
			t.Fatalf("UnmarshalWireTrace: id=%x err=%v", gotID, err)
		}
		want := Hops(id)
		if len(hops) != len(want) {
			t.Fatalf("round trip: %v want %v", hops, want)
		}
		for i := range hops {
			if hops[i] != want[i] {
				t.Errorf("hop %d = %+v want %+v", i, hops[i], want[i])
			}
		}

		// Merging into a fresh store reconstructs the trace and dedups
		// repeated deliveries of the same extension.
		ResetFlight()
		mergedBefore := metrics.C(metrics.CtrTraceWireMerged).Load()
		if mid, ok := MergeWireTrace(blob); !ok || mid != id {
			t.Fatalf("MergeWireTrace: id=%x ok=%v", mid, ok)
		}
		MergeWireTrace(blob) // duplicate (fragments carry the blob per datagram)
		if got := Hops(id); len(got) != len(want) {
			t.Fatalf("after dup merge: %d hops, want %d: %v", len(got), len(want), got)
		}
		if got := metrics.C(metrics.CtrTraceWireMerged).Load(); got != mergedBefore+2 {
			t.Errorf("wire-merged counter %d -> %d, want +2", mergedBefore, got)
		}
	})
}

func TestFlightMergeAnchorsUnseenTrace(t *testing.T) {
	withTracing(t, func() {
		// A remote trace whose last hop delta is 500µs: local origin is
		// back-computed so a local follow-on hop lands after it.
		id := uint64(0xfeed)
		MergeHops(id, []Hop{
			{Node: "remote", Stage: StagePublish, DeltaUS: 0},
			{Node: "remote", Stage: StageFragment, DeltaUS: 500},
		})
		AppendHop(id, "local", StageDeliver)
		tl, ok := Timeline(id)
		if !ok || len(tl) != 3 {
			t.Fatalf("Timeline = %v, %v", tl, ok)
		}
		if tl[2].Node != "local" || tl[2].DeltaUS < 500 {
			t.Errorf("local hop should sort after the last wire hop: %+v", tl)
		}
	})
}

func TestFlightMalformedWire(t *testing.T) {
	withTracing(t, func() {
		badBefore := metrics.C(metrics.CtrTraceWireBad).Load()
		cases := [][]byte{
			nil,
			{1, 2, 3},                        // shorter than header
			{0, 0, 0, 0, 0, 0, 0, 1, 200},    // nhops over maxWireHops
			{0, 0, 0, 0, 0, 0, 0, 1, 1, 0},   // truncated hop record
			append(make([]byte, 9), 1, 2, 3), // nhops=0 with trailing bytes
			make([]byte, maxWireBlob+1),      // oversized claim
			{0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 9}, // nodeLen past end
		}
		for i, blob := range cases {
			if _, ok := MergeWireTrace(blob); ok {
				t.Errorf("case %d: malformed blob accepted", i)
			}
		}
		if got := metrics.C(metrics.CtrTraceWireBad).Load(); got < badBefore+uint64(len(cases)) {
			t.Errorf("wire-bad counter %d -> %d, want +%d", badBefore, got, len(cases))
		}
	})
}

func TestFlightHopCapAndEviction(t *testing.T) {
	withTracing(t, func() {
		droppedBefore := metrics.C(metrics.CtrTraceHopsDropped).Load()
		id := uint64(0xca9)
		for i := 0; i < maxTraceHops+5; i++ {
			AppendHop(id, "n", StageQueue)
		}
		if got := len(Hops(id)); got != maxTraceHops {
			t.Errorf("hop cap: %d hops retained, want %d", got, maxTraceHops)
		}
		if got := metrics.C(metrics.CtrTraceHopsDropped).Load(); got != droppedBefore+5 {
			t.Errorf("hops-dropped counter %d -> %d, want +5", droppedBefore, got)
		}

		// Store eviction: oldest-created trace goes first.
		ResetFlight()
		for i := 0; i < maxTraces+1; i++ {
			AppendHop(uint64(i+1), "n", StagePublish)
		}
		if Hops(1) != nil {
			t.Error("oldest trace should have been evicted")
		}
		if Hops(maxTraces+1) == nil {
			t.Error("newest trace missing")
		}
	})
}

func TestFlightWireNodeTruncation(t *testing.T) {
	withTracing(t, func() {
		id := uint64(0x77)
		long := strings.Repeat("n", maxWireNode+40)
		AppendHop(id, long, StagePublish)
		blob := AppendWireTrace(nil, id)
		gotID, hops, err := UnmarshalWireTrace(blob)
		if err != nil || gotID != id || len(hops) != 1 {
			t.Fatalf("round trip: %x %v %v", gotID, hops, err)
		}
		if len(hops[0].Node) != maxWireNode {
			t.Errorf("node length on wire = %d, want %d", len(hops[0].Node), maxWireNode)
		}
	})
}

func TestDebugTraceEndpoint(t *testing.T) {
	withTracing(t, func() {
		id := MsgID("wired-0", 3)
		AppendHop(id, "wired-0", StagePublish)
		AppendHop(id, "wired-1", StageDeliver)
		h := Handler()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?sender=wired-0&seq=3", nil))
		body := rec.Body.String()
		if !strings.Contains(body, "publish") || !strings.Contains(body, "deliver") {
			t.Errorf("/debug/trace?sender=&seq= = %q", body)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
		if body := rec.Body.String(); !strings.Contains(body, "retained traces: 1") {
			t.Errorf("trace index = %q", body)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?msg=zzz", nil))
		if rec.Code != 400 {
			t.Errorf("bad ?msg= should 400, got %d", rec.Code)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?msg=0000000000000001", nil))
		if body := rec.Body.String(); !strings.Contains(body, "not retained") {
			t.Errorf("unknown trace = %q", body)
		}
	})
}

// TestDebugTraceTakesEverySeq: ?seq= is a sender's uint32 sequence
// number, so the whole range looks a trace up, and anything that is
// not one answers 400.
func TestDebugTraceTakesEverySeq(t *testing.T) {
	withTracing(t, func() {
		h := Handler()
		for _, seq := range []uint32{1<<20 + 1, math.MaxUint32} {
			AppendHop(MsgID("wired-0", seq), "wired-0", StagePublish)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/debug/trace?sender=wired-0&seq=%d", seq), nil))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), "publish") {
				t.Errorf("seq %d: %d %q", seq, rec.Code, rec.Body.String())
			}
		}
		for _, seq := range []string{"", "x", "-1", "4294967296"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?sender=wired-0&seq="+seq, nil))
			if rec.Code != 400 {
				t.Errorf("seq %q answered %d, want 400", seq, rec.Code)
			}
		}
	})
}

func TestRuntimeGaugesAndPprof(t *testing.T) {
	h := Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"aqos_runtime_goroutines",
		"aqos_runtime_heap_alloc_bytes",
		"aqos_runtime_gc_pause_p99_ns",
		"aqos_trace_hops_dropped",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ = %d", rec.Code)
	}
}

func TestFlightConcurrent(t *testing.T) {
	withTracing(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 1_000; i++ {
					id := MsgID("w", uint32(i%64))
					AppendHop(id, "n", Stage(i%int(numStages)))
					if i%7 == 0 {
						blob := AppendWireTrace(nil, id)
						if len(blob) > 0 {
							MergeWireTrace(blob)
						}
					}
					if i%31 == 0 {
						_, _ = Timeline(id)
						_ = TraceSummaries(8)
					}
					if i%97 == 0 {
						SetTraceEnabled(i%2 == 0)
					}
				}
			}(w)
		}
		wg.Wait()
		SetTraceEnabled(true)
	})
}

// TestTraceDisabledZeroAllocs is the flight recorder's "free when off"
// contract: with tracing disabled, the hop/merge/marshal entry points
// must allocate nothing.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	SetTraceEnabled(false)
	var dst []byte
	blob := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0}
	cases := []struct {
		name string
		fn   func()
	}{
		{"AppendHop", func() { AppendHop(99, "node", StageMatch) }},
		{"MergeWireTrace", func() { _, _ = MergeWireTrace(blob) }},
		{"AppendWireTrace", func() { dst = AppendWireTrace(dst[:0], 99) }},
		{"TraceEnabled", func() { _ = TraceEnabled() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op on the disabled path, want 0", tc.name, allocs)
		}
	}
}
