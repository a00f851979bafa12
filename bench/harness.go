package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// phase is what one measured stretch of a workload yields.  The
// workload fills the load-side fields (deliveries, ops, slices,
// wireBytes, completeUS); measure fills the process-side ones.
type phase struct {
	every      time.Duration // slice length the workload's slicer uses
	deliveries uint64        // intended recipients that applied a message
	ops        uint64        // publish calls made
	slices     []float64     // deliveries per wall-second, one per slice
	wireBytes  uint64        // bytes delivered by the transport(s)
	completeUS []float64     // publish (or due time) -> last recipient applied

	wall         time.Duration
	cpu          time.Duration // RUSAGE_SELF user+sys
	mallocs      uint64
	allocBytes   uint64
	heapLive     uint64    // mean of heapSamples
	heapSamples  []float64 // /gc/heap/live:bytes at 20 Hz
	heapRetained uint64    // HeapAlloc after a forced GC once the phase has drained
	gcCycles     uint32
	gcPauseNS    uint64
	goroutines   int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// measure runs fn between two snapshots of the process's CPU time and
// allocation counters, sampling the live heap at 20 Hz meanwhile.  The
// snapshots stop the world, so they sit outside fn, never inside.
func measure(every time.Duration, fn func(ph *phase)) *phase {
	ph := &phase{every: every}
	runtime.GC() // start every measured phase from a collected heap
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			ph.heapSamples = append(ph.heapSamples, float64(heapLiveBytes()))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	fn(ph)
	ph.wall, ph.cpu = time.Since(t0), cpuTime()-c0
	ph.goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&m1)
	close(stop)
	wg.Wait()
	// The time average, not the maximum: the samples land on arbitrary
	// GC cycles and the largest of 200 varies by 20-40% between runs of
	// the same code, their mean by 1-3% — also where the heap ramps up
	// through the phase (chat-lossy-repair's archive), which spreads
	// the median by 10%.
	var sum float64
	for _, s := range ph.heapSamples {
		sum += s
	}
	ph.heapLive = uint64(sum / float64(len(ph.heapSamples)))
	var m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m2)
	ph.heapRetained = m2.HeapAlloc
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles = m1.NumGC - m0.NumGC
	ph.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	return ph
}

// quiescent closes a set-up: it watches the process for quietWindow and
// returns the CPU time it used meanwhile.  Warm-up is over only when
// replays, timers and collections it set off have died down; a process
// still busy here would charge that work to the timed phase.  The window
// is part of setup_s, and being timer-bound it also steadies that
// metric, whose work-bound rest moves with the box's speed.
func quiescent() time.Duration {
	c0 := cpuTime()
	time.Sleep(quietWindow)
	return cpuTime() - c0
}

// slicer turns a monotonically growing delivery count into per-slice
// rates.  The generator calls tick whenever convenient; a slice closes
// at the first tick past its boundary and is rated over the time that
// actually elapsed, so late ticks stretch a slice but do not bias it.
type slicer struct {
	every     time.Duration
	start     time.Time
	lastAt    time.Time
	lastCount uint64
	rates     []float64
}

func newSlicer(every time.Duration, now time.Time, count uint64) *slicer {
	return &slicer{every: every, start: now, lastAt: now, lastCount: count}
}

func (s *slicer) tick(now time.Time, count uint64) {
	if now.Sub(s.lastAt) < s.every {
		return
	}
	s.rates = append(s.rates, float64(count-s.lastCount)/now.Sub(s.lastAt).Seconds())
	s.lastAt, s.lastCount = now, count
}

// pollSleep is the generator's wait between credit checks in the timed
// phase: long enough that its own polling stays out of the CPU figure.
func pollSleep() { time.Sleep(pollSleepUS * time.Microsecond) }

// waitUntil sleep-polls cond until it holds or the deadline passes.
func waitUntil(deadline time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			return cond()
		}
		pollSleep()
	}
	return true
}

// spinUntil busy-polls cond (yielding the processor between checks);
// only the latency phase uses it.
func spinUntil(deadline time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for i := 0; !cond(); i++ {
		if i&1023 == 1023 && time.Now().After(end) {
			return cond()
		}
		runtime.Gosched()
	}
	return true
}
