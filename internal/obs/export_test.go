package obs

// Hooks only this package's tests use; kept out of the production
// surface (the census gate, internal/census, would report them).

import (
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
)

func (r *eventRing) reset() {
	r.mu.Lock()
	r.next = 0
	r.mu.Unlock()
}

// ResetEvents clears the trace log (tests, debugging sessions).
func ResetEvents() { events.reset() }

// SetClock pins all obs timestamps (spans, events, hops, recorder
// headers, collector samples) to c; nil restores the wall clock.
// Like SetEnabled, it is a process-wide switch intended for startup or
// simulation harnesses, not per-request use.
func SetClock(c clock.Clock) {
	if c == nil {
		clk.Store(nil)
		return
	}
	clk.Store(&clockBox{c: c})
}

// gauges snapshots every registered gauge.
func gauges() map[string]float64 {
	out := make(map[string]float64)
	metrics.Each(func(name string, m any) {
		if g, ok := m.(*metrics.Gauge); ok {
			out[name] = g.Load()
		}
	})
	return out
}
