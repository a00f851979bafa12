package obs

import (
	"runtime"
	"slices"
)

// SampleRuntime is the SamplerFunc of process health: goroutines, heap
// bytes in use, GC cycles and the p99 GC pause.  /metrics also calls it
// on every scrape, so the gauges are fresh without a sampling owner.
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
	pauses := slices.Clone(ms.PauseNs[:min(int(ms.NumGC), len(ms.PauseNs))])
	if len(pauses) == 0 {
		return 0
	}
	slices.Sort(pauses)
	return float64(pauses[(len(pauses)*99+99)/100-1])
}
