package slo

import "time"

// Objective identifies one SLO dimension.
type Objective uint8

// The four contract objectives (DESIGN.md §13).
const (
	// ObjDelivery bounds delivery latency: at most 1% of deliveries
	// (p99) may exceed Spec.DeliveryP99 over a window.
	ObjDelivery Objective = iota
	// ObjLoss bounds the mean sampled loss fraction by Spec.LossMax.
	ObjLoss
	// ObjRepair bounds gap-repair convergence: at most
	// repairSlowFrac of repairs may take longer than
	// Spec.RepairConverge.
	ObjRepair
	// ObjTier is the tier-residency floor: the client must sit at or
	// above Spec.TierFloor for at least Spec.TierResidency of samples.
	ObjTier
	numObjectives
)

var objectiveNames = [numObjectives]string{"delivery", "loss", "repair", "tier"}

// String returns the objective label (metric labels, debug views).
func (o Objective) String() string {
	if o < numObjectives {
		return objectiveNames[o]
	}
	return "objective(?)"
}

// Spec is one client's declarative SLO: per-objective targets, the
// evaluation windows, and the state-machine thresholds.  Zero-valued
// objective targets disable that objective; zero-valued machinery
// fields take defaults.  SpecForClass returns per-contract-class
// presets.
type Spec struct {
	// Class names the contract class the spec was derived from.
	Class string

	// DeliveryP99 is the delivery-latency bound: at most 1% of
	// deliveries may exceed it (0 disables the objective).
	DeliveryP99 time.Duration
	// LossMax is the loss-fraction budget: the mean sampled loss over
	// a window may not exceed it (0 disables).
	LossMax float64
	// RepairConverge bounds repair convergence latency; a fraction
	// repairSlowFrac of slower repairs is tolerated.
	RepairConverge time.Duration
	// TierFloor is the minimum acceptable service tier ordinal;
	// TierResidency is the required fraction of samples at or above it
	// (default 0.9).  TierFloor 0 disables the objective.
	TierFloor     int
	TierResidency float64

	// ShortWindow and LongWindow are the sliding evaluation intervals
	// (defaults 5s and 4×ShortWindow).  The short window reacts, the
	// long window confirms: violation requires both to burn.
	ShortWindow, LongWindow time.Duration

	// HoldDown is how long a recovered client must stay clean before
	// it is conforming again (default ShortWindow).
	HoldDown time.Duration

	// RecoveryDeadline bounds adaptation effectiveness: conformance
	// restored within it after a violation counts effective, a blown
	// deadline counts ineffective (default LongWindow).
	RecoveryDeadline time.Duration
}

// The conformance state machine's burn-rate thresholds: at-risk when
// shortBurn >= atRiskBurn, violated when shortBurn >= violateBurn AND
// longBurn >= atRiskBurn, recovered when shortBurn falls below
// recoverBurn.  repairSlowFrac is ObjRepair's error budget, the
// tolerated fraction of repairs slower than Spec.RepairConverge.
const (
	atRiskBurn     = 1
	violateBurn    = 2
	recoverBurn    = 0.5
	repairSlowFrac = 0.1
)

func (s Spec) withDefaults() Spec {
	if s.Class == "" {
		s.Class = "interactive"
	}
	if s.TierResidency <= 0 || s.TierResidency >= 1 {
		s.TierResidency = 0.9
	}
	if s.ShortWindow <= 0 {
		s.ShortWindow = 5 * time.Second
	}
	if s.LongWindow < s.ShortWindow {
		s.LongWindow = 4 * s.ShortWindow
	}
	if s.HoldDown <= 0 {
		s.HoldDown = s.ShortWindow
	}
	if s.RecoveryDeadline <= 0 {
		s.RecoveryDeadline = s.LongWindow
	}
	return s
}

// budget returns the objective's error budget — the tolerated bad
// fraction burn rates are normalized against — and whether the
// objective is enabled by this spec.
func (s Spec) budget(o Objective) (float64, bool) {
	switch o {
	case ObjDelivery:
		return 0.01, s.DeliveryP99 > 0
	case ObjLoss:
		return s.LossMax, s.LossMax > 0
	case ObjRepair:
		return repairSlowFrac, s.RepairConverge > 0
	case ObjTier:
		return 1 - s.TierResidency, s.TierFloor > 0
	}
	return 0, false
}

// Burn returns the burn rate implied by an observed bad fraction (for
// ObjLoss, the mean sampled loss fraction): frac divided by the
// objective's error budget, exactly the normalization the conformance
// state machine applies to its sliding windows.  Objectives the spec
// disables burn 0.  The counterfactual replay harness scores candidate
// policies with this (DESIGN.md §15), so replay fitness and live
// conformance agree on what "one budget's worth of badness" means.
func (s Spec) Burn(o Objective, frac float64) float64 {
	budget, enabled := s.withDefaults().budget(o)
	if !enabled || budget <= 0 {
		return 0
	}
	return frac / budget
}

// bad classifies one observation against the objective's target.
func (s Spec) bad(o Objective, v float64) bool {
	switch o {
	case ObjDelivery:
		return v > float64(s.DeliveryP99.Nanoseconds())
	case ObjLoss:
		return v > s.LossMax
	case ObjRepair:
		return v > float64(s.RepairConverge.Nanoseconds())
	case ObjTier:
		return v < float64(s.TierFloor)
	}
	return false
}

// SpecForClass returns the preset spec for a contract class:
//
//	realtime     tight latency and loss, full-image tier floor
//	interactive  the default collaboration profile
//	bulk         relaxed latency, loss-tolerant, text tier floor
//
// Unknown classes get the interactive preset under their own name.
func SpecForClass(class string) Spec {
	s := Spec{Class: class}
	switch class {
	case "realtime":
		s.DeliveryP99 = 20 * time.Millisecond
		s.LossMax = 0.01
		s.RepairConverge = 250 * time.Millisecond
		s.TierFloor = 3 // image
		s.TierResidency = 0.95
	case "bulk":
		s.DeliveryP99 = 2 * time.Second
		s.LossMax = 0.20
		s.RepairConverge = 5 * time.Second
		s.TierFloor = 1 // text
		s.TierResidency = 0.5
	default: // interactive
		s.DeliveryP99 = 100 * time.Millisecond
		s.LossMax = 0.05
		s.RepairConverge = time.Second
		s.TierFloor = 1 // text
		s.TierResidency = 0.9
	}
	return s.withDefaults()
}
