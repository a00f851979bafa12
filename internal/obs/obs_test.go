package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveqos/internal/metrics"
)

// withInstrumentation runs the body with the global flag on and
// restores a clean disabled state (flag off, ring cleared) afterwards,
// keeping the package's global state from leaking across tests.
func withInstrumentation(t *testing.T, body func()) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() {
		SetEnabled(false)
		ResetEvents()
	})
	body()
}

func TestMsgIDStableAndDistinct(t *testing.T) {
	a := MsgID("wired-0", 7)
	if b := MsgID("wired-0", 7); b != a {
		t.Fatal("MsgID not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for _, sender := range []string{"wired-0", "wired-1", "bs", ""} {
		for seq := uint32(0); seq < 4; seq++ {
			if sender == "wired-0" && seq == 7 {
				continue
			}
			id := MsgID(sender, seq)
			if seen[id] {
				t.Fatalf("collision for (%q, %d)", sender, seq)
			}
			seen[id] = true
		}
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"publish", "queue", "match", "transform", "fragment", "rtp", "reorder", "deliver", "repair", "transmit", "archive"}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
	if Stage(200).String() != "stage(?)" {
		t.Error("out-of-range stage should not panic")
	}
}

func TestSpanDisabledIsInert(t *testing.T) {
	SetEnabled(false)
	before := StageHistogram(StageMatch).Snapshot().Count
	sp := StartStage(1, StageMatch)
	if sp.Active() {
		t.Fatal("disabled span should be inactive")
	}
	sp.End()
	sp.EndErr("should not be recorded")
	Drop(1, StageMatch, "nope")
	Note(1, StageMatch, "nope")
	if got := StageHistogram(StageMatch).Snapshot().Count; got != before {
		t.Errorf("disabled span recorded: %d -> %d", before, got)
	}
	if evs := Events(0); len(evs) != 0 {
		t.Errorf("disabled path logged %d events", len(evs))
	}
}

func TestSpanEnabledRecords(t *testing.T) {
	withInstrumentation(t, func() {
		h := StageHistogram(StageTransform)
		before := h.Snapshot().Count
		sp := StartStage(42, StageTransform)
		if !sp.Active() {
			t.Fatal("enabled span should be active")
		}
		time.Sleep(time.Microsecond)
		sp.End()
		s := h.Snapshot()
		if s.Count != before+1 {
			t.Fatalf("count %d -> %d", before, s.Count)
		}
		// End() must not touch the trace ring.
		if evs := Events(0); len(evs) != 0 {
			t.Errorf("plain End logged %d events", len(evs))
		}

		sp2 := StartStage(43, StageTransform)
		sp2.EndErr("rejected by test")
		evs := Events(0)
		if len(evs) != 1 {
			t.Fatalf("EndErr should log one event, got %d", len(evs))
		}
		ev := evs[0]
		if ev.MsgID != 43 || ev.Stage != StageTransform || ev.Kind != EventDrop ||
			ev.Detail != "rejected by test" || ev.NS < 0 {
			t.Errorf("event = %+v", ev)
		}
	})
}

func TestDropAndNote(t *testing.T) {
	withInstrumentation(t, func() {
		Drop(7, StageMatch, "filtered")
		Note(8, StageReorder, "skip")
		evs := Events(0)
		if len(evs) != 2 {
			t.Fatalf("got %d events", len(evs))
		}
		if evs[0].Kind != EventDrop || evs[0].Kind.String() != "drop" {
			t.Errorf("first event: %+v", evs[0])
		}
		if evs[1].Kind != EventNote || evs[1].Kind.String() != "note" {
			t.Errorf("second event: %+v", evs[1])
		}
	})
}

func TestRingOverwriteOldest(t *testing.T) {
	withInstrumentation(t, func() {
		for i := 0; i < ringCapacity+10; i++ {
			Drop(uint64(i), StageDeliver, "")
		}
		evs := Events(0)
		if len(evs) != ringCapacity {
			t.Fatalf("retained %d events, want %d", len(evs), ringCapacity)
		}
		if evs[0].MsgID != 10 {
			t.Errorf("oldest retained = %d, want 10 (overwrite-oldest)", evs[0].MsgID)
		}
		if last := evs[len(evs)-1].MsgID; last != ringCapacity+9 {
			t.Errorf("newest retained = %d", last)
		}
		// Bounded snapshot returns the most recent events.
		tail := Events(3)
		if len(tail) != 3 || tail[2].MsgID != ringCapacity+9 {
			t.Errorf("Events(3) = %+v", tail)
		}
	})
}

func TestGaugesAndRegistry(t *testing.T) {
	metrics.SetGauge(`test_gauge{x="1"}`, 2.5)
	if got := gauges()[`test_gauge{x="1"}`]; got != 2.5 {
		t.Errorf("gauge = %g", got)
	}
	// Same name returns the same instance.
	if metrics.H("same-h") != metrics.H("same-h") {
		t.Error("registry should intern by name")
	}
	metrics.H("same-h").Reset() // the registry outlives a run: -count=2 reruns this test
	metrics.H("same-h").Observe(5)
	if s := metrics.H("same-h").Snapshot(); s.Count != 1 {
		t.Errorf("histogram missing observation: %+v", s)
	}
}

// TestSample runs every sampler into the gauge set and, with a
// recorder installed, stamps each recorded qos event with the instant
// the caller passed, not the wall clock's.
func TestSample(t *testing.T) {
	var buf bytes.Buffer
	prev := InstallRecorder(NewRecorder(&buf, "sample-node"))
	at := time.Unix(946_684_800, 400_000_000) // a virtual clock's instant
	calls := 0
	Sample(at,
		func(set func(string, float64)) { calls++; set("sample_test_gauge", 9) },
		func(set func(string, float64)) { calls++ })
	if err := InstallRecorder(prev).Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("%d samplers ran, want 2", calls)
	}
	if gauges()["sample_test_gauge"] != 9 {
		t.Error("Sample did not set the sampler's gauge")
	}
	sess, err := LoadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := RecEvent{Type: RecTypeQoS, AtNS: at.UnixNano(), Name: "sample_test_gauge", Value: 9}
	if len(sess.Events) != 1 || sess.Events[0] != want {
		t.Errorf("recorded %+v, want [%+v]", sess.Events, want)
	}
}

// TestConcurrentSpans drives every span entry point from many
// goroutines with instrumentation toggling mid-flight; run under
// -race in CI.
func TestConcurrentSpans(t *testing.T) {
	withInstrumentation(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2_000; i++ {
					sp := StartStage(MsgID("w", uint32(i)), Stage(i%int(numStages)))
					if i%17 == 0 {
						sp.EndErr("err")
					} else {
						sp.End()
					}
					if i%5 == 0 {
						Note(uint64(i), StageRTP, "n")
					}
					if i%97 == 0 {
						SetEnabled(i%2 == 0) // flip the flag under load
					}
					if i%31 == 0 {
						_ = Events(8)
						_ = WriteMetrics(io.Discard)
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// TestDisabledPathZeroAllocs is the tentpole's "near-free when
// disabled" contract: with the flag off, every hot-path entry point
// must allocate nothing.
func TestDisabledPathZeroAllocs(t *testing.T) {
	SetEnabled(false)
	cases := []struct {
		name string
		fn   func()
	}{
		{"StartStage+End", func() {
			sp := StartStage(99, StageMatch)
			sp.End()
		}},
		{"StartStage+EndErr", func() {
			sp := StartStage(99, StageMatch)
			if sp.Active() {
				sp.EndErr("never built")
			}
		}},
		{"Drop", func() { Drop(99, StageDeliver, "static detail") }},
		{"Note", func() { Note(99, StageDeliver, "static detail") }},
		{"MsgID", func() { _ = MsgID("wired-0", 12345) }},
		{"Enabled", func() { _ = Enabled() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op on the disabled path, want 0", tc.name, allocs)
		}
	}
}

// The enabled span fast path (StartStage + End) must also be
// allocation-free: it is on every message's critical path.
func TestEnabledSpanZeroAllocs(t *testing.T) {
	withInstrumentation(t, func() {
		if allocs := testing.AllocsPerRun(100, func() {
			sp := StartStage(7, StageFragment)
			sp.End()
		}); allocs != 0 {
			t.Errorf("enabled span path: %g allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			StageHistogram(StageFragment).Observe(123)
		}); allocs != 0 {
			t.Errorf("histogram observe: %g allocs/op, want 0", allocs)
		}
	})
}

func TestSanitizeAndLabels(t *testing.T) {
	if got := sanitizeName(`client sir.db{client="w0"}`); got != `aqos_client_sir_db{client="w0"}` {
		t.Errorf("sanitizeName = %q", got)
	}
	if got := sanitizeName("plain"); got != "aqos_plain" {
		t.Errorf("sanitizeName = %q", got)
	}
	if got := withLabel(`h{stage="x"}`, "le", "4096"); got != `h{stage="x",le="4096"}` {
		t.Errorf("withLabel = %q", got)
	}
	if got := withLabel("h", "le", "+Inf"); got != `h{le="+Inf"}` {
		t.Errorf("withLabel = %q", got)
	}
}

func TestParsePositive(t *testing.T) {
	if n, err := parsePositive("128"); err != nil || n != 128 {
		t.Errorf("parsePositive(128) = %d, %v", n, err)
	}
	for _, bad := range []string{"", "-1", "12x", "99999999999"} {
		if _, err := parsePositive(bad); err == nil {
			t.Errorf("parsePositive(%q) should fail", bad)
		}
	}
	if !strings.HasPrefix(sanitizeName("x"), metricPrefix) {
		t.Error("exposed names must carry the namespace prefix")
	}
}
