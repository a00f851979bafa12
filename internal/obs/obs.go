// Package obs is the runtime observability layer threaded through the
// delivery pipeline: stage spans feeding per-stage histograms in the
// internal/metrics registry, one bounded event log of flight hops, drops
// and notes, the session recorder, a QoS sampler its owner ticks, and a
// text exposition endpoint (/metrics, /debug/qos, /debug/trace and the
// Endpoints the program passes; no package registers a page itself).
//
// Disabled, instrumentation is near-free: one atomic flag load per
// stage entry, value-type spans that no-op, zero allocations
// (TestDisabledPathZeroAllocs, TestDisabledOverheadGuard).
package obs

import (
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// Histogram is the registry's histogram under its old name, kept only
// because bench/ spells it obs.Histogram; ROADMAP item 21 removes it.
type Histogram = metrics.Histogram

// enabled is the instrumentation switch, loaded once per stage entry.
var enabled atomic.Bool

// SetEnabled turns pipeline instrumentation on or off at runtime.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether pipeline instrumentation is on.
func Enabled() bool { return enabled.Load() }

// MsgID derives a message's trace identifier from its sender and
// sender-scoped seq (FNV-1a over the sender, mixed with the seq), so
// every hop recomputes it for free, even from an undecoded frame's bytes.
func MsgID[S string | []byte](sender S, seq uint32) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(sender); i++ {
		h ^= uint64(sender[i])
		h *= 1099511628211
	}
	h ^= uint64(seq)
	h *= 1099511628211
	return h
}
