package slo

import (
	"testing"
	"time"
)

// guardWorkload mirrors the obs overhead guards: an FNV-1a pass over a
// buffer, the order of one message's real per-hop work.
func guardWorkload(buf []byte, seed uint64) uint64 {
	h := seed ^ 14695981039346656037
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestDisabledObserveZeroAllocs pins the tentpole's disabled-path
// contract: with SLO monitoring off, every Observe* entry point is one
// atomic load and allocates nothing.
func TestDisabledObserveZeroAllocs(t *testing.T) {
	SetEnabled(false)
	at := time.Unix(1000, 0)
	if n := testing.AllocsPerRun(1000, func() {
		ObserveDelivery("c", 10*time.Millisecond, at)
		ObserveLoss("c", 0.01, at)
		ObserveRepair("c", 100*time.Millisecond, at)
		ObserveRadio("c", RadioSnapshot{BS: "bs", SIRdB: 9, Tier: 2}, at)
	}); n != 0 {
		t.Fatalf("disabled Observe* allocates %.1f per run, want 0", n)
	}
}

// TestEnabledObserveSteadyStateZeroAllocs checks the enabled hot path:
// once a client's state exists, an observation is a map lookup and a
// bucket update — no allocation.
func TestEnabledObserveSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine(SpecForClass("interactive"))
	at := time.Unix(1000, 0)
	e.Observe("c", ObjLoss, 0.01, at) // allocate the client state once
	if n := testing.AllocsPerRun(1000, func() {
		e.Observe("c", ObjLoss, 0.01, at)
		e.Observe("c", ObjDelivery, float64(10*time.Millisecond), at)
	}); n != 0 {
		t.Fatalf("steady-state Observe allocates %.1f per run, want 0", n)
	}
}

// TestEnabledObserveOverheadGuard is the CI gate on the ISSUE's <5%
// overhead budget for enabled SLO evaluation: wrapping a realistic
// per-message unit of work with an enabled Observe must add under 5%.
func TestEnabledObserveOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("race detector multiplies lock-access cost; budget is meaningless")
	}

	e := NewEngine(SpecForClass("interactive"))
	e.Observe("guard-client", ObjDelivery, float64(time.Millisecond), time.Now())

	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 13)
	}
	const iters = 10_000
	const rounds = 5

	var sink uint64
	bare := func() {
		for i := 0; i < iters; i++ {
			sink += guardWorkload(buf, uint64(i))
		}
	}
	observed := func() {
		for i := 0; i < iters; i++ {
			sink += guardWorkload(buf, uint64(i))
			e.Observe("guard-client", ObjDelivery, float64(time.Millisecond), time.Now())
		}
	}

	timed := func(fn func()) time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	// bestOf alternates the two paths round by round and keeps each
	// one's fastest round, so a burst of load on a shared host slows
	// rounds of both, not only the path that happened to be timing.
	bestOf := func() (bareBest, obsBest time.Duration) {
		bareBest, obsBest = time.Duration(1<<63-1), time.Duration(1<<63-1)
		for r := 0; r < rounds; r++ {
			bareBest = min(bareBest, timed(bare))
			obsBest = min(obsBest, timed(observed))
		}
		return bareBest, obsBest
	}

	// Warm both paths, then interleave; a shared CI host can steal the
	// core mid-round, so an over-budget reading is re-measured before
	// it fails the guard.
	bare()
	observed()
	const attempts = 3
	var overhead float64
	for a := 1; a <= attempts; a++ {
		bareBest, obsBest := bestOf()
		if sink == 0 {
			t.Fatal("workload optimized away")
		}
		overhead = float64(obsBest-bareBest) / float64(bareBest)
		t.Logf("attempt %d: bare %v, observed %v, overhead %.2f%%",
			a, bareBest, obsBest, overhead*100)
		if overhead <= 0.05 {
			return
		}
	}
	t.Errorf("enabled Observe overhead %.2f%% exceeds the 5%% budget", overhead*100)
}

// TestConcurrentObservePoll shakes the engine under -race: observers,
// pollers and readers running together must not race or deadlock.
func TestConcurrentObservePoll(t *testing.T) {
	e := NewEngine(testSpec())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			client := []string{"a", "b"}[g%2]
			for i := 0; i < 2000; i++ {
				e.Observe(client, Objective(i%int(numObjectives)), 0.5, time.Now())
			}
		}(g)
	}
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; i < 200; i++ {
			e.Poll(time.Now())
			e.Status()
			e.Transitions(8)
			e.Attributions("a")
		}
	}()
	for i := 0; i < 5; i++ {
		<-done
	}
}
