package obs

import (
	"testing"
	"time"
)

// guardWorkload is the unit of real work the guard instruments: an
// FNV-1a pass over a 128-byte buffer, roughly the cost of hashing one
// small message header.  Big enough that timer noise does not swamp
// it, small enough that real instrumentation overhead would show.
func guardWorkload(buf []byte, seed uint64) uint64 {
	h := seed ^ 14695981039346656037
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// interleavedMin times a and b alternately, one run of each per round,
// and returns the fastest run of each: a slow spell on a shared host
// lands on both sides, not on whichever was being timed in full.
func interleavedMin(rounds int, a, b func()) (aBest, bBest time.Duration) {
	aBest, bBest = time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		a()
		aBest = min(aBest, time.Since(start))
		start = time.Now()
		b()
		bBest = min(bBest, time.Since(start))
	}
	return aBest, bBest
}

// TestDisabledOverheadGuard is the CI guard for the tentpole's
// "near-free when disabled" contract: timing a workload wrapped in
// disabled spans against the bare workload, the overhead must stay
// under 5%.  Timing runs use min-of-rounds over fixed iteration
// counts, which is stable enough for a 5% bound on shared CI hosts.
func TestDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("race detector multiplies atomic-access cost; budget is meaningless")
	}
	SetEnabled(false)

	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	const iters = 200_000
	const rounds = 7

	var sink uint64
	bare := func() {
		for i := 0; i < iters; i++ {
			sink += guardWorkload(buf, uint64(i))
		}
	}
	instrumented := func() {
		for i := 0; i < iters; i++ {
			sp := StartStage(uint64(i), StageMatch)
			sink += guardWorkload(buf, uint64(i))
			sp.End()
		}
	}

	// Warm up both paths, then interleave measurements round by round
	// so frequency scaling and a noisy neighbour hit both equally.  A shared CI host can steal the core
	// mid-round and inflate either side, so an over-budget reading is
	// re-measured before it fails the guard.
	bare()
	instrumented()
	const attempts = 3
	var overhead float64
	for a := 1; a <= attempts; a++ {
		bareBest, instBest := interleavedMin(rounds, bare, instrumented)
		if sink == 0 {
			t.Fatal("workload optimized away")
		}
		overhead = float64(instBest-bareBest) / float64(bareBest)
		t.Logf("attempt %d: bare %v, instrumented %v, overhead %.2f%%",
			a, bareBest, instBest, overhead*100)
		if overhead <= 0.05 {
			return
		}
	}
	t.Errorf("disabled instrumentation overhead %.2f%% exceeds the 5%% budget", overhead*100)
}

// TestTraceOverheadGuard extends the overhead budget to the
// enabled-trace path: with spans already on, turning the flight
// recorder on must add under 5% to a realistic per-message unit of
// work.  The workload is an 8 KiB hash pass (µs-scale, the order of
// one message's real pipeline work — encode, copy and checksum of a
// datagram-sized frame); each iteration appends one hop, with
// trace ids rotating so entries see a handful of hops each and the
// store exercises its eviction path.
func TestTraceOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("race detector multiplies lock-access cost; budget is meaningless")
	}
	SetEnabled(true)
	SetTraceEnabled(false)
	t.Cleanup(func() {
		SetEnabled(false)
		SetTraceEnabled(false)
		ResetFlight()
		ResetEvents()
	})

	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 13)
	}
	const iters = 10_000
	const rounds = 5

	var sink uint64
	spansOnly := func() {
		SetTraceEnabled(false)
		for i := 0; i < iters; i++ {
			sp := StartStage(uint64(i/8+1), StageMatch)
			sink += guardWorkload(buf, uint64(i))
			AppendHop(uint64(i/8+1), "guard-node", StageMatch) // no-op: recorder off
			sp.End()
		}
	}
	traced := func() {
		SetTraceEnabled(true)
		ResetFlight()
		for i := 0; i < iters; i++ {
			sp := StartStage(uint64(i/8+1), StageMatch)
			sink += guardWorkload(buf, uint64(i))
			AppendHop(uint64(i/8+1), "guard-node", StageMatch)
			sp.End()
		}
		SetTraceEnabled(false)
	}

	spansOnly()
	traced()
	const attempts = 3
	var overhead float64
	for a := 1; a <= attempts; a++ {
		baseBest, tracedBest := interleavedMin(rounds, spansOnly, traced)
		if sink == 0 {
			t.Fatal("workload optimized away")
		}
		overhead = float64(tracedBest-baseBest) / float64(baseBest)
		t.Logf("attempt %d: spans-only %v, traced %v, overhead %.2f%%",
			a, baseBest, tracedBest, overhead*100)
		if overhead <= 0.05 {
			return
		}
	}
	t.Errorf("enabled-trace overhead %.2f%% exceeds the 5%% budget", overhead*100)
}
