// Package obs may read the wall clock in this one file.
package obs

import "time"

// NowNS is the wall clock's default.
func NowNS() int64 { return time.Now().UnixNano() }
