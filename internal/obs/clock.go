package obs

import "adaptiveqos/internal/clock"

// nowNS is the single timestamp source for the package.  The
// instrumentation layer is package-global (spans, drops, flight hops can
// come from any goroutine with no handle to pass a clock through), so it
// stamps on the wall clock.
func nowNS() int64 { return clock.Wall.Now().UnixNano() }
