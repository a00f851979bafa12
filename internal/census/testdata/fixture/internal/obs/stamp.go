package obs

import "time"

// stamp takes time.Now as a value, which a text match for "time.Now()"
// misses: the clock-seam rule flags it.
var stamp = time.Now

// Stamp reads the stamp.
func Stamp() int64 { return stamp().UnixNano() }
