// Package clock is the time seam every other layer schedules through:
// a Clock interface with a Wall implementation (thin wrappers over the
// time package — the default everywhere, so wall-clock behaviour is
// unchanged) and a deterministic Virtual implementation driven by a
// shared event heap (virtual.go) for discrete-event simulation.
//
// The package deliberately imports nothing from this repository (the
// census leaf rule enforces it): every layer may depend on the seam,
// the seam depends on no layer.  Conversely, no package outside this
// one may call time.Sleep / time.After / time.AfterFunc / time.Tick /
// time.NewTicker / time.NewTimer directly — scheduling goes through an
// injected Clock, so an entire session can run on virtual time (the
// census scheduling rule).  Nor may it read the wall clock with
// time.Now / time.Since / time.Until: outside this package the census
// clock-seam rule forbids those too, so a recorded session replays on
// its own clock.  Formatting and
// arithmetic on time values stay free.
package clock

import "time"

// Clock abstracts the scheduling surface of package time.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks until the clock has advanced by d.
	Sleep(d time.Duration)
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker firing every d (d must be > 0).
	NewTicker(d time.Duration) Ticker
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
}

// Timer is the clock-agnostic *time.Timer shape.
type Timer interface {
	// C returns the timer's delivery channel.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset re-arms the timer for d from now, reporting whether it was
	// still pending.
	Reset(d time.Duration) bool
}

// Ticker is the clock-agnostic *time.Ticker shape.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Wall is the process's real-time clock; the zero-config default for
// every layer that takes an injected Clock.
var Wall Clock = wallClock{}

// Or returns c, or Wall when c is nil — the one-line default every
// config field uses.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

type wallClock struct{}

func (wallClock) Now() time.Time                  { return time.Now() }
func (wallClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (wallClock) NewTimer(d time.Duration) Timer   { return wallTimer{t: time.NewTimer(d)} }
func (wallClock) NewTicker(d time.Duration) Ticker { return wallTicker{t: time.NewTicker(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }
