package obs

import (
	"runtime"
	"sort"
)

// SampleRuntime feeds process-health gauges into the gauge set:
// goroutine count, heap bytes in use, GC cycle count and the p99 GC
// pause over the runtime's retained pause ring.  The signature matches
// SamplerFunc so an owner can pass it to Sample; the /metrics handler
// also calls it on every scrape so the gauges are fresh without a
// sampling owner (ReadMemStats is scrape-time work, not hot-path work).
func SampleRuntime(set func(name string, value float64)) {
	set("runtime_goroutines", float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("runtime_heap_alloc_bytes", float64(ms.HeapAlloc))
	set("runtime_gc_cycles", float64(ms.NumGC))
	set("runtime_gc_pause_p99_ns", gcPauseP99(&ms))
}

// gcPauseP99 computes the 99th-percentile GC pause from the MemStats
// circular pause buffer (up to the 256 most recent cycles).
func gcPauseP99(ms *runtime.MemStats) float64 {
	n := int(ms.NumGC)
	if n == 0 {
		return 0
	}
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]uint64, n)
	copy(pauses, ms.PauseNs[:n])
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	idx := (n*99 + 99) / 100
	if idx > n {
		idx = n
	}
	return float64(pauses[idx-1])
}
