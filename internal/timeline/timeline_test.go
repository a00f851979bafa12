package timeline

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
)

// newVirtualTimeline builds a timeline on a fresh virtual clock with a
// small ring — the workhorse fixture.
func newVirtualTimeline(window time.Duration, retention int) (*Timeline, *clock.Virtual) {
	clk := clock.NewVirtual(clock.DefaultEpoch)
	return New(Config{Window: window, Retention: retention, Clock: clk}), clk
}

// advance moves clk on by d and closes the window there, as an owner's
// tick does.
func advance(tl *Timeline, clk *clock.Virtual, d time.Duration) {
	clk.Advance(d)
	tl.SampleNow()
}

func TestCounterWindows(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var c metrics.Counter
	c.Add(7) // pre-track activity must not leak into the first window
	tl.TrackCounter("reqs", &c)

	c.Add(3)
	advance(tl, clk, time.Second) // closes [0s,1s): delta 3
	c.Add(5)
	advance(tl, clk, time.Second) // closes [1s,2s): delta 5
	advance(tl, clk, time.Second) // closes [2s,3s): delta 0

	got := tl.Query(Query{Series: []string{"reqs"}})
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1", len(got))
	}
	pts := got[0].Points
	if len(pts) != 3 {
		t.Fatalf("windows = %d, want 3", len(pts))
	}
	wantDeltas := []float64{3, 5, 0}
	for i, p := range pts {
		if p.Value != wantDeltas[i] {
			t.Errorf("window %d delta = %v, want %v", i, p.Value, wantDeltas[i])
		}
		if p.Rate != wantDeltas[i] {
			t.Errorf("window %d rate = %v, want %v (1s windows)", i, p.Rate, wantDeltas[i])
		}
		wantStart := clock.DefaultEpoch.Add(time.Duration(i) * time.Second).UnixNano()
		if p.StartNS != wantStart || p.EndNS != wantStart+int64(time.Second) {
			t.Errorf("window %d bounds = [%d,%d), want [%d,%d)",
				i, p.StartNS, p.EndNS, wantStart, wantStart+int64(time.Second))
		}
	}
	if got[0].Kind != "counter" {
		t.Errorf("kind = %q, want counter", got[0].Kind)
	}
}

func TestGaugeAndDerivedWindows(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var g metrics.Gauge
	var level float64
	tl.TrackGauge("depth", &g)
	tl.TrackFunc("level", func() float64 { return level })

	g.Set(4.5)
	level = 1
	advance(tl, clk, time.Second)
	g.Set(2.25)
	level = 2
	advance(tl, clk, time.Second)

	got := tl.Query(Query{})
	if len(got) != 2 {
		t.Fatalf("series = %d, want 2", len(got))
	}
	// Name-sorted: depth before level.
	if got[0].Name != "depth" || got[1].Name != "level" {
		t.Fatalf("names = %q,%q, want depth,level", got[0].Name, got[1].Name)
	}
	if got[0].Points[0].Value != 4.5 || got[0].Points[1].Value != 2.25 {
		t.Errorf("gauge windows = %v,%v, want 4.5,2.25", got[0].Points[0].Value, got[0].Points[1].Value)
	}
	if got[1].Points[0].Value != 1 || got[1].Points[1].Value != 2 {
		t.Errorf("derived windows = %v,%v, want 1,2", got[1].Points[0].Value, got[1].Points[1].Value)
	}
	if got[0].Points[0].Rate != 0 {
		t.Errorf("gauge rate = %v, want 0 (rates are for counters/histograms)", got[0].Points[0].Rate)
	}
}

func TestHistogramWindowedQuantiles(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var h metrics.Histogram
	tl.TrackHistogram("lat", &h)

	// Window 1: fast observations.  Window 2: slow ones.  The windowed
	// p99 must track each window, not the lifetime distribution.
	for i := 0; i < 100; i++ {
		h.Observe(1_000)
	}
	advance(tl, clk, time.Second)
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000)
	}
	advance(tl, clk, time.Second)
	advance(tl, clk, time.Second) // empty window

	got := tl.Query(Query{Series: []string{"lat"}})
	pts := got[0].Points
	if len(pts) != 3 {
		t.Fatalf("windows = %d, want 3", len(pts))
	}
	if pts[0].Count != 100 || pts[1].Count != 100 || pts[2].Count != 0 {
		t.Fatalf("counts = %d,%d,%d, want 100,100,0", pts[0].Count, pts[1].Count, pts[2].Count)
	}
	// Log-bucketed: quantiles land within a power-of-two bucket.
	if pts[0].P99 > 4_096 {
		t.Errorf("window 1 p99 = %v, want <= 4096 (fast window)", pts[0].P99)
	}
	if pts[1].P99 < 500_000 {
		t.Errorf("window 2 p99 = %v, want >= 500000 (slow window)", pts[1].P99)
	}
	if pts[2].P99 != 0 || pts[2].Mean != 0 {
		t.Errorf("empty window p99/mean = %v/%v, want 0/0", pts[2].P99, pts[2].Mean)
	}
	lifetime := h.Snapshot().Quantile(0.50)
	if pts[0].P50 >= lifetime {
		t.Errorf("window 1 p50 %v should sit below the lifetime p50 %v", pts[0].P50, lifetime)
	}
	if pts[0].Rate != 100 {
		t.Errorf("window 1 rate = %v, want 100/s", pts[0].Rate)
	}
	if pts[1].Mean != 1_000_000 {
		t.Errorf("window 2 mean = %v, want 1000000", pts[1].Mean)
	}
}

func TestTrackAllRescan(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	tl.TrackAll()

	// Metrics registered after TrackAll are picked up at the next window
	// close (with that window zeroed — deltas flow from the next one, so
	// pre-tracking history never dumps into a single window).
	c := metrics.C("timeline.test.rescan")
	metrics.SetGauge("timeline_test_rescan_gauge", 0)
	h := metrics.H("timeline_test_rescan_hist")
	advance(tl, clk, time.Second) // close 1: one rescan adopts all three kinds
	kinds := map[string]string{}
	for _, sd := range tl.Query(Query{Contains: []string{"rescan"}}) {
		kinds[sd.Name] = sd.Kind
	}
	if kinds["timeline.test.rescan"] != "counter" || kinds["timeline_test_rescan_gauge"] != "gauge" ||
		kinds["timeline_test_rescan_hist"] != "histogram" {
		t.Fatalf("after one window close the rescan adopted %v, want the counter, gauge and histogram", kinds)
	}
	c.Add(2)
	metrics.SetGauge("timeline_test_rescan_gauge", 9)
	h.Observe(50)
	advance(tl, clk, time.Second) // close 2: first window with their deltas

	byName := make(map[string]SeriesData)
	for _, sd := range tl.Query(Query{Contains: []string{"rescan"}}) {
		byName[sd.Name] = sd
	}
	if sd, ok := byName["timeline.test.rescan"]; !ok || sd.Points[len(sd.Points)-1].Value != 2 {
		t.Errorf("rescanned counter missing or wrong: %+v", sd)
	}
	if sd, ok := byName["timeline_test_rescan_gauge"]; !ok || sd.Points[len(sd.Points)-1].Value != 9 {
		t.Errorf("rescanned gauge missing or wrong: %+v", sd)
	}
	if sd, ok := byName["timeline_test_rescan_hist"]; !ok || sd.Points[len(sd.Points)-1].Count != 1 {
		t.Errorf("rescanned histogram missing or wrong: %+v", sd)
	}
}

func TestRingWrapAround(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 4)
	var c metrics.Counter
	tl.TrackCounter("c", &c)
	for i := 1; i <= 6; i++ {
		c.Add(uint64(i))
		advance(tl, clk, time.Second)
	}
	if tl.WindowCount() != 4 {
		t.Fatalf("WindowCount = %d, want 4 (retention)", tl.WindowCount())
	}
	pts := tl.Query(Query{})[0].Points
	if len(pts) != 4 {
		t.Fatalf("windows = %d, want 4", len(pts))
	}
	// Oldest two (deltas 1, 2) evicted; 3..6 retained oldest-first.
	for i, want := range []float64{3, 4, 5, 6} {
		if pts[i].Value != want {
			t.Errorf("window %d delta = %v, want %v", i, pts[i].Value, want)
		}
	}
}

func TestFlushClosesPartialWindow(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var c metrics.Counter
	tl.TrackCounter("c", &c)

	tl.Flush() // no time passed: nothing to close
	if tl.WindowCount() != 0 {
		t.Fatalf("WindowCount after no-op Flush = %d, want 0", tl.WindowCount())
	}
	c.Add(4)
	clk.Advance(300 * time.Millisecond)
	tl.Flush()
	if tl.WindowCount() != 1 {
		t.Fatalf("WindowCount after Flush = %d, want 1", tl.WindowCount())
	}
	p := tl.Query(Query{})[0].Points[0]
	if p.Value != 4 {
		t.Errorf("partial window delta = %v, want 4", p.Value)
	}
	if got := p.EndNS - p.StartNS; got != int64(300*time.Millisecond) {
		t.Errorf("partial window width = %dns, want 300ms", got)
	}
}

func TestSampleNowClosesOwnerWindows(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var c metrics.Counter
	tl.TrackCounter("c", &c)
	// The owner decides where windows close, whatever Config.Window says.
	for i := 0; i < 3; i++ {
		c.Inc()
		advance(tl, clk, 250*time.Millisecond)
	}
	if tl.WindowCount() != 3 {
		t.Fatalf("WindowCount = %d, want 3", tl.WindowCount())
	}
	for i, p := range tl.Query(Query{})[0].Points {
		if p.Value != 1 {
			t.Errorf("window %d delta = %v, want 1", i, p.Value)
		}
	}
}

func TestDuplicateTrackIgnored(t *testing.T) {
	tl, _ := newVirtualTimeline(time.Second, 4)
	var c1, c2 metrics.Counter
	tl.TrackCounter("dup", &c1)
	tl.TrackCounter("dup", &c2) // first wins
	var g metrics.Gauge
	tl.TrackGauge("dup", &g) // cross-kind duplicate too
	if len(tl.series) != 1 {
		t.Fatalf("%d series, want 1", len(tl.series))
	}
	c1.Add(5)
	tl.SampleNow()
	if v := tl.Query(Query{})[0].Points[0].Value; v != 5 {
		t.Errorf("delta = %v, want 5 (from the first registration)", v)
	}
}

func TestQueryFilters(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 16)
	var a, b, c metrics.Counter
	tl.TrackCounter("alpha.sent", &a)
	tl.TrackCounter("beta.sent", &b)
	tl.TrackCounter("gamma.drop", &c)
	for i := 0; i < 5; i++ {
		advance(tl, clk, time.Second)
	}

	if got := tl.Query(Query{Series: []string{"beta.sent"}}); len(got) != 1 || got[0].Name != "beta.sent" {
		t.Errorf("exact filter: %+v", got)
	}
	if got := tl.Query(Query{Contains: []string{".sent"}}); len(got) != 2 {
		t.Errorf("contains filter matched %d series, want 2", len(got))
	}
	// Series and Contains compose as a union.
	if got := tl.Query(Query{Series: []string{"gamma.drop"}, Contains: []string{"alpha"}}); len(got) != 2 {
		t.Errorf("union filter matched %d series, want 2", len(got))
	}
	if got := tl.Query(Query{MaxSeries: 2}); len(got) != 2 || got[0].Name != "alpha.sent" {
		t.Errorf("MaxSeries: %+v", got)
	}
	if got := tl.Query(Query{MaxWindows: 2}); len(got[0].Points) != 2 {
		t.Errorf("MaxWindows kept %d windows, want 2", len(got[0].Points))
	}
	// MaxWindows keeps the most recent windows.
	latest := tl.Query(Query{MaxWindows: 1})[0].Points[0]
	wantEnd := clock.DefaultEpoch.Add(5 * time.Second).UnixNano()
	if latest.EndNS != wantEnd {
		t.Errorf("MaxWindows=1 end = %d, want %d", latest.EndNS, wantEnd)
	}
	// Since/Until bound by window overlap.
	mid := clock.DefaultEpoch.Add(2 * time.Second).UnixNano()
	if got := tl.Query(Query{SinceNS: mid}); len(got[0].Points) != 3 {
		t.Errorf("SinceNS kept %d windows, want 3", len(got[0].Points))
	}
	if got := tl.Query(Query{UntilNS: mid}); len(got[0].Points) != 2 {
		t.Errorf("UntilNS kept %d windows, want 2", len(got[0].Points))
	}
}

func TestEnableActiveDisable(t *testing.T) {
	Disable()
	if Active() != nil {
		t.Fatal("Active should be nil when no timeline is enabled")
	}
	tl, _ := newVirtualTimeline(time.Second, 4)
	Enable(tl)
	if Active() != tl {
		t.Fatal("Active should return the enabled timeline")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Active should be nil after Disable")
	}
}

func TestWriteTextRendersSparklines(t *testing.T) {
	tl, clk := newVirtualTimeline(time.Second, 8)
	var c metrics.Counter
	tl.TrackCounter("sent", &c)
	for i := 0; i < 4; i++ {
		c.Add(uint64(i * i))
		advance(tl, clk, time.Second)
	}
	var buf bytes.Buffer
	if err := tl.WriteText(&buf, Query{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sent") || !strings.Contains(out, "counter") {
		t.Errorf("text output missing series row:\n%s", out)
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("text output missing sparkline:\n%s", out)
	}
}
