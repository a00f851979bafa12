package obs

// Hooks only this package's tests use; kept out of the production
// surface (the census gate, internal/census, would report them).

import (
	"time"

	"adaptiveqos/internal/clock"
)

func (r *eventRing) reset() {
	r.mu.Lock()
	r.next = 0
	r.mu.Unlock()
}

// ResetEvents clears the trace log (tests, debugging sessions).
func ResetEvents() { events.reset() }

// SetInterval changes the sampling cadence (d <= 0 means 1s).  Safe
// while running: the loop re-arms its timer with the current interval
// after every fire, so the change takes effect from the next tick
// without a restart.
func (c *Collector) SetInterval(d time.Duration) {
	if d <= 0 {
		d = time.Second
	}
	c.mu.Lock()
	c.interval = d
	c.mu.Unlock()
}

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

// SetGaugeCardinalityLimit changes the per-family labeled-gauge cap;
// n <= 0 removes the cap.  Lowering the limit does not evict gauges
// already registered — it only stops new label sets from registering.
func SetGaugeCardinalityLimit(n int) {
	if n <= 0 {
		gaugeCardLimit.Store(-1)
		return
	}
	gaugeCardLimit.Store(int64(n))
}
