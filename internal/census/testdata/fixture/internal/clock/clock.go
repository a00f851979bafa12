// Package clock is the fixture's clock seam.  It may read and wait on
// the wall clock (the scheduling and clock-seam rules exempt it), but as
// a leaf it may import nothing from this module: the metrics import
// breaks the leaf rule.
package clock

import (
	"time"

	"fixture/internal/metrics"
)

// Wall is what a kernel may not reach for.
var Wall = time.Now

// Sleep waits on the wall clock and counts the wait.
func Sleep(d time.Duration) {
	metrics.Reads++
	time.Sleep(d)
}

// Clock is the seam's scheduling surface, which telemetry may not use.
type Clock interface {
	NewTicker(d time.Duration) <-chan time.Time
}
