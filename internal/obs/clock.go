package obs

import (
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
)

// The instrumentation layer is package-global (spans, drops, flight
// hops can come from any goroutine with no handle to pass a clock
// through), so its clock is too: an atomic pointer read on every
// timestamp keeps the disabled path at its zero-alloc, ~single-atomic
// cost while letting a simulation pin the whole layer to virtual time.
var clk atomic.Pointer[clockBox]

type clockBox struct{ c clock.Clock }

// nowNS is the single timestamp source for the package.
func nowNS() int64 {
	if b := clk.Load(); b != nil {
		return b.c.Now().UnixNano()
	}
	return time.Now().UnixNano()
}

// clockOrWall returns the installed clock (scheduling loops like the
// collector's ticker go through it).
func clockOrWall() clock.Clock {
	if b := clk.Load(); b != nil {
		return b.c
	}
	return clock.Wall
}
