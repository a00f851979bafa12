package timeline

import (
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
)

// TestDisabledPathZeroAllocs pins the house rule for call sites: with
// no timeline enabled, the check they pay is one atomic load and zero
// allocations.
func TestDisabledPathZeroAllocs(t *testing.T) {
	Disable()
	var sink *Timeline
	allocs := testing.AllocsPerRun(1000, func() {
		if tl := Active(); tl != nil {
			sink = tl
		}
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f per check, want 0", allocs)
	}
	_ = sink
}

// populateGuardTimeline tracks a representative mixed series set: 8
// counters, 8 gauges, 4 histograms and 2 derived series.
func populateGuardTimeline(tl *Timeline) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		var c metrics.Counter
		c.Add(12345)
		tl.TrackCounter("ctr."+n, &c)
		var g metrics.Gauge
		g.Set(3.25)
		tl.TrackGauge("gauge."+n, &g)
	}
	for _, n := range names[:4] {
		h := &metrics.Histogram{}
		for i := 0; i < 100; i++ {
			h.Observe(int64(1000 * (i + 1)))
		}
		tl.TrackHistogram("hist."+n, h)
	}
	tl.TrackFunc("derived.x", func() float64 { return 1.5 })
	tl.TrackFunc("derived.y", func() float64 { return 2.5 })
}

// TestSampleZeroAllocs pins the enabled steady-state house rule: once
// the rings exist, closing a window allocates nothing regardless of the
// series mix (histogram deltas stay on the stack).
func TestSampleZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; measure without -race")
	}
	clk := clock.NewVirtual(clock.DefaultEpoch)
	tl := New(Config{Window: time.Second, Retention: 64, Clock: clk})
	populateGuardTimeline(tl)
	tl.SampleNow() // settle prev snapshots
	allocs := testing.AllocsPerRun(200, func() {
		clk.Advance(time.Second)
		tl.SampleNow()
	})
	if allocs != 0 {
		t.Errorf("steady-state sample allocates %.1f per window, want 0", allocs)
	}
}

// TestTimelineOverheadGuard is the CI guard for the <5% overhead
// budget: a workload that exercises the instrumented hot path
// (counter increments and histogram observes) must not slow by more
// than 5% while another goroutine closes a timeline window over it at
// an aggressive 1ms cadence on the wall clock, as an owner's ticker
// would.  Min-of-rounds with re-measurement keeps the guard stable on
// shared CI hosts.
func TestTimelineOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("race detector multiplies atomic-access cost; budget is meaningless")
	}

	var c metrics.Counter
	var h metrics.Histogram
	const iters = 200_000
	const rounds = 7

	workload := func() {
		for i := 0; i < iters; i++ {
			c.Inc()
			h.Observe(int64(i)&0xfff + 1)
		}
	}
	minTime := func(fn func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			fn()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	tl := New(Config{Window: time.Millisecond, Retention: 128, Clock: clock.Wall})
	tl.TrackCounter("guard.ctr", &c)
	tl.TrackHistogram("guard.hist", &h)
	sampled := func() time.Duration {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					tl.SampleNow()
				}
			}
		}()
		defer func() { close(stop); <-done }()
		return minTime(workload)
	}

	workload() // warm-up
	const attempts = 3
	var overhead float64
	for a := 1; a <= attempts; a++ {
		bareBest := minTime(workload)
		sampledBest := sampled()
		overhead = float64(sampledBest-bareBest) / float64(bareBest)
		t.Logf("attempt %d: bare %v, sampled %v, overhead %.2f%%",
			a, bareBest, sampledBest, overhead*100)
		if overhead <= 0.05 {
			return
		}
	}
	t.Errorf("timeline sampling overhead %.2f%% exceeds the 5%% budget", overhead*100)
}
