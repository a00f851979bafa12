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

// Or is Wall's nil default, which a kernel may not reach for either.
func Or(now func() time.Time) func() time.Time {
	metrics.Reads++
	time.Sleep(0)
	if now == nil {
		return Wall
	}
	return now
}

// Clock is the seam's scheduling surface, which telemetry may not use.
type Clock interface {
	NewTicker(d time.Duration) <-chan time.Time
}
