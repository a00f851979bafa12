// Package slo closes the paper's adaptation loop with measurement:
// clients hold QoS contracts and the system adapts modality, tier and
// repair behaviour to keep them — this package is the part that says
// whether a contract is actually being met, for whom, and whether an
// adaptation fixed anything.
//
// Each client gets a declarative Spec (delivery-latency p99, loss
// fraction, repair time-to-converge, tier-residency floor — preset
// per contract class) evaluated over a short and a long sliding
// window as burn rates: observed badness divided by the objective's
// error budget, so burn 1.0 means "consuming exactly the budget" and
// anything above it is trouble.  A per-client conformance state
// machine (conforming → at-risk → violated → recovered) runs on the
// windowed burn rates; transitions are counted (aqos_slo_*), exported
// as gauges, appended to the session record, and — on entry into
// violated — decorated with an attribution bundle: the flight
// recorder's worst traces that ended at the client, the inference
// decisions audited in the surrounding window, and the client's last
// radio snapshot.  Violations also start an
// adaptation-effectiveness clock: conformance restored within the
// recovery deadline counts aqos_slo_adaptation_effective (plus a
// time-to-recover histogram), a blown deadline counts
// aqos_slo_adaptation_ineffective.
//
// Every observation reaches the engine one way, pushed by the node
// that knows the fact, stamped on that node's clock: a client's
// deliveries and sampled loss, its kernel's repairs, and the radio
// picture the base station samples for each member (ObserveRadio).
// The engine pulls from no one.
//
// Like the rest of the observability layer, the disabled path is one
// process-global atomic load and zero allocations (guarded by
// TestDisabledObserveZeroAllocs and TestEnabledObserveOverheadGuard in
// CI).
package slo

import (
	"sync/atomic"
	"time"
)

// on is the process-global SLO evaluation switch; every Observe*
// entry point loads it once and returns when off.
var on atomic.Bool

// SetEnabled turns SLO conformance monitoring on or off at runtime.
func SetEnabled(v bool) { on.Store(v) }

// Enabled reports whether SLO conformance monitoring is on.
func Enabled() bool { return on.Load() }

// defaultEngine is the process-global engine the package-level
// Observe* functions feed, mirroring the obs package's globals: hot
// paths call slo.ObserveDelivery(...) without holding a handle.
var defaultEngine = NewEngine(Spec{})

// Default returns the process-global engine (polling, debug views).
func Default() *Engine { return defaultEngine }

// ObserveDelivery records one message-delivery latency for client at
// the instant at, on the caller's clock — publish timestamp to
// application apply, the user-visible delay the delivery objective
// bounds.  No-op (one atomic load, zero allocations) while monitoring
// is off.
func ObserveDelivery(client string, latency time.Duration, at time.Time) {
	if !on.Load() {
		return
	}
	defaultEngine.Observe(client, ObjDelivery, float64(latency.Nanoseconds()), at)
}

// ObserveLoss records one sampled loss fraction (0..1) for client at
// the instant at.
func ObserveLoss(client string, fraction float64, at time.Time) {
	if !on.Load() {
		return
	}
	defaultEngine.Observe(client, ObjLoss, fraction, at)
}

// ObserveRepair records one gap-repair convergence latency (first
// NACK to gap filled) for client at the instant at.
func ObserveRepair(client string, converge time.Duration, at time.Time) {
	if !on.Load() {
		return
	}
	defaultEngine.Observe(client, ObjRepair, float64(converge.Nanoseconds()), at)
}

// ObserveRadio records one sampled radio picture for client at the
// instant at: its service tier (the radio.Tier ordinal: 0 none, 1
// text, 2 sketch, 3 image) feeds the tier objective, and the snapshot
// is what the client's next violation bundle carries.
func ObserveRadio(client string, snap RadioSnapshot, at time.Time) {
	if !on.Load() {
		return
	}
	defaultEngine.ObserveRadio(client, snap, at)
}
