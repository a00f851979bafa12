// Package clock is the time seam every other layer reads and waits
// through: a Clock interface (a time source) with a Wall implementation
// (thin wrappers over the time package — the default everywhere, so
// wall-clock behaviour is unchanged) and a deterministic Virtual
// implementation, an event heap (virtual.go) for discrete-event
// simulation.
//
// The package deliberately imports nothing from this repository (the
// census leaf rule enforces it): every layer may depend on the seam,
// the seam depends on no layer.  Conversely, no package outside this
// one may call time.Sleep / time.After / time.AfterFunc / time.Tick /
// time.NewTicker / time.NewTimer directly — a wait goes through
// clock.Wall and virtual-time work is a Virtual heap event, so an
// entire session can run on virtual time (the census scheduling rule).
// Nor may it read the wall clock with time.Now / time.Since /
// time.Until: outside this package the census clock-seam rule forbids
// those too, so a recorded session replays on its own clock.
// Formatting and arithmetic on time values stay free.
package clock

import "time"

// Clock is a time source: what every layer reads the time through.
// Only Wall can also be waited on; work on a Virtual clock is a heap
// event (ScheduleFunc, ScheduleBatch) instead.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// Wall is the process's real-time clock: the zero-config default for
// every layer that takes an injected Clock, and the one clock a
// goroutine can sleep, time out or tick on.
var Wall = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Since is shorthand for Now().Sub(t).
func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep blocks the calling goroutine for d.
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// NewTimer returns a timer that fires once after d.
func (wallClock) NewTimer(d time.Duration) *time.Timer { return time.NewTimer(d) }

// NewTicker returns a ticker firing every d (d must be > 0).
func (wallClock) NewTicker(d time.Duration) *time.Ticker { return time.NewTicker(d) }
