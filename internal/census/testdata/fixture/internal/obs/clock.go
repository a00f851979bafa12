// Package obs reads the wall clock through the clock seam.
package obs

import "fixture/internal/clock"

// NowNS is the wall clock's default.
func NowNS() int64 { return clock.Wall().UnixNano() }
