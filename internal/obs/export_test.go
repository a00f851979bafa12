package obs

// Hooks only this package's tests use; kept out of the production
// surface (the census gate, internal/census, would report them).

import "adaptiveqos/internal/metrics"

func (r *eventRing) reset() {
	r.mu.Lock()
	r.next = 0
	r.mu.Unlock()
}

// ResetEvents clears the trace log (tests, debugging sessions).
func ResetEvents() { events.reset() }

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
