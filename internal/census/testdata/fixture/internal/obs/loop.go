package obs

import (
	"time"

	"fixture/internal/clock"
)

// Loop ticks by itself, which the passive-telemetry rule flags: its
// owner ticks telemetry.
func Loop(c clock.Clock) <-chan time.Time { return c.NewTicker(time.Second) }
