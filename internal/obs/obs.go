// Package obs is the runtime observability layer threaded through the
// delivery pipeline: per-message pipeline stage spans feeding per-stage
// histograms in the internal/metrics registry and a ring-buffer event
// log, a QoS telemetry sampler its owner ticks, and a text exposition
// endpoint (Prometheus-style /metrics plus a human /debug/qos dump).
// The endpoint serves the built-in pages and the extra Endpoints the
// program passes Handler or Serve, and its /debug index lists exactly
// those: no package registers a page of its own.
//
// Instrumentation is near-free when disabled: hot paths check one
// process-global atomic flag per stage entry, span handles are value
// types that no-op when the flag is off, and the disabled path
// performs zero allocations (verified by TestDisabledPathZeroAllocs
// and guarded in CI by TestDisabledOverheadGuard).
package obs

import (
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// Histogram is the registry's histogram under its old name, kept only
// because bench/ spells it obs.Histogram; ROADMAP item 1 removes it.
type Histogram = metrics.Histogram

// enabled is the process-global instrumentation switch.  Pipeline
// entry points load it once per stage; everything downstream of a
// disabled check is skipped entirely.
var enabled atomic.Bool

// SetEnabled turns pipeline instrumentation on or off at runtime.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether pipeline instrumentation is on.
func Enabled() bool { return enabled.Load() }

// MsgID derives the stable trace identifier for a message from its
// sender and sender-scoped sequence number (FNV-1a over the sender,
// mixed with the seq).  Every pipeline hop can recompute it from the
// message itself, so the trace context crosses the wire for free — no
// envelope format change, no allocation — including for a receiver that
// holds the sender only as the bytes of a frame it has not decoded.
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
