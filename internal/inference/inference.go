// Package inference implements the inference engine: it combines the
// client profile's QoS contract and the current system/network state
// into concrete adaptation decisions — how many image packets to
// accept and which modality to deliver.
//
// The policy is code, not a rule database: Params.Decide applies the
// paper's mappings in one fixed order and composes them by tightening
// (each budget mapping can only lower the packet budget, so the most
// constrained resource governs — the paper's behaviour where either
// page faults or CPU load can throttle the image viewer).  The live
// clients, the figure sweeps and the counterfactual replay all decide
// through it.
package inference

import (
	"math"
	"strings"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// Unlimited marks a packet budget with no constraint applied.
const Unlimited = -1

// Decision is the inference engine's output for one adaptation cycle.
type Decision struct {
	// PacketBudget is the maximum number of image packets to accept;
	// Unlimited (-1) when no rule constrained it, 0 meaning "accept
	// nothing" under extreme load.
	PacketBudget int
	// Modality is the delivery modality to request; empty means keep
	// the source modality.
	Modality media.Kind
	// Contract is the QoS contract evaluation for this state.
	Contract profile.Evaluation
	// Fired lists the rules that fired, in firing order.
	Fired []string
}

// constrain lowers the budget to at most n (composing by min).
func (d *Decision) constrain(n int) {
	if n < 0 {
		n = 0
	}
	if d.PacketBudget == Unlimited || n < d.PacketBudget {
		d.PacketBudget = n
	}
}

// EffectiveBudget resolves the budget against the total packet count.
func (d Decision) EffectiveBudget(total int) int {
	if d.PacketBudget == Unlimited || d.PacketBudget > total {
		return total
	}
	return d.PacketBudget
}

// Engine decides for one client: the paper's policy at its default
// parameters plus the client's QoS contract.  Each decision bumps the
// aqos_inference_rule_fired counter of every rule that fired and, when
// obs instrumentation is on, lands in the decision audit
// (/debug/decisions) and the session record.  An Engine is immutable
// and safe for concurrent use.
type Engine struct {
	owner    string
	contract *profile.Contract
	clk      clock.Clock
	fired    map[string]*metrics.Counter
}

// New creates the engine deciding for owner (the name labelling its
// audit entries) under contract (nil means an empty, always-satisfied
// contract), stamping audit entries from clk.
// Every rule's counter is registered here, so /metrics lists each rule
// at zero before it first fires.
func New(owner string, contract *profile.Contract, clk clock.Clock) *Engine {
	if contract == nil {
		contract = profile.MustContract("empty")
	}
	e := &Engine{owner: owner, contract: contract, clk: clk,
		fired: make(map[string]*metrics.Counter, len(ruleNames))}
	for _, name := range ruleNames {
		e.fired[name] = metrics.C(metrics.RuleFired(name))
	}
	return e
}

// Decide evaluates the contract and the policy against the state.
func (e *Engine) Decide(state selector.Attributes) Decision {
	d := Params{}.Decide(state)
	d.Contract = e.contract.Evaluate(state)
	for _, name := range d.Fired {
		e.fired[name].Inc()
	}
	if obs.Enabled() {
		at := e.clk.Now().UnixNano()
		recordAudit(AuditEntry{
			At:         at,
			Client:     e.owner,
			State:      formatState(state),
			Fired:      append([]string(nil), d.Fired...),
			Budget:     d.PacketBudget,
			Satisfied:  d.Contract.Satisfied,
			Modality:   string(d.Modality),
			Violations: append([]string(nil), d.Contract.Violated...),
		})
		if obs.Recording() {
			obs.RecordEvent(obs.RecEvent{
				Type:   obs.RecTypeDecision,
				AtNS:   at,
				Client: e.owner,
				Name:   strings.Join(d.Fired, ","),
				Value:  float64(d.PacketBudget),
				Detail: string(d.Modality),
			})
		}
	}
	return d
}

// --- The paper's adaptation mappings (Figs 6 and 7) ---

// Params parameterizes the policy's adaptation mappings.  The seed
// hard-coded the paper's numbers (budget breakpoints at 30 and 100,
// bandwidth tiers at 64/16 kbit/s); making them an injectable struct
// lets the counterfactual replay harness (DESIGN.md §15) sweep
// candidate policies against a recorded session through the same
// Decide the live engine runs.  Zero-valued fields take the paper's
// defaults, so Params{} behaves exactly like the seed.
type Params struct {
	// MaxPackets is the budget ceiling every mapping tops out at
	// (default 16, the paper's image packet count).
	MaxPackets int `json:"max_packets,omitempty"`
	// PageFaultLo/Hi bound the Fig 6 mapping: full budget at or below
	// Lo faults, one packet at or above Hi (defaults 30 and 100).
	PageFaultLo float64 `json:"page_fault_lo,omitempty"`
	PageFaultHi float64 `json:"page_fault_hi,omitempty"`
	// CPULoadLo/Hi bound the Fig 7 mapping: full budget at or below Lo
	// percent, zero packets at or above Hi (defaults 30 and 100).
	CPULoadLo float64 `json:"cpu_load_lo,omitempty"`
	CPULoadHi float64 `json:"cpu_load_hi,omitempty"`
	// SketchBps and TextBps are the bandwidth thresholds degrading the
	// delivery modality to sketch and text (defaults 64000 and 16000).
	SketchBps float64 `json:"sketch_bps,omitempty"`
	TextBps   float64 `json:"text_bps,omitempty"`
	// HeavyLossSketch is the observed-loss fraction above which image
	// modality degrades to sketch (default 0.5).
	HeavyLossSketch float64 `json:"heavy_loss_sketch,omitempty"`
}

// WithDefaults fills zero-valued fields with the paper's numbers.
func (p Params) WithDefaults() Params {
	if p.MaxPackets < 1 {
		p.MaxPackets = 16
	}
	if p.PageFaultLo <= 0 {
		p.PageFaultLo = 30
	}
	if p.PageFaultHi <= p.PageFaultLo {
		p.PageFaultHi = p.PageFaultLo + 70
	}
	if p.CPULoadLo <= 0 {
		p.CPULoadLo = 30
	}
	if p.CPULoadHi <= p.CPULoadLo {
		p.CPULoadHi = p.CPULoadLo + 70
	}
	if p.SketchBps == 0 {
		p.SketchBps = 64_000
	}
	if p.TextBps == 0 {
		p.TextBps = 16_000
	}
	if p.HeavyLossSketch <= 0 || p.HeavyLossSketch > 1 {
		p.HeavyLossSketch = 0.5
	}
	return p
}

// PacketsFromPageFaults maps the observed page-fault rate to an image
// packet budget (Fig 6): full budget at ≤PageFaultLo faults, halving
// in powers of two down to 1 packet at ≥PageFaultHi.  A MaxPackets
// that is no power of two caps the ladder of the nearest one.
func (p Params) PacketsFromPageFaults(pageFaults float64) int {
	p = p.WithDefaults()
	maxExp := int(math.Round(math.Log2(float64(p.MaxPackets))))
	lo, hi := p.PageFaultLo, p.PageFaultHi
	switch {
	case pageFaults <= lo:
		return min(1<<uint(maxExp), p.MaxPackets)
	case pageFaults >= hi:
		return 1
	}
	// Linear in the exponent: quantized gradation in powers of two.
	exp := int(math.Round(float64(maxExp) * (hi - pageFaults) / (hi - lo)))
	if exp < 0 {
		exp = 0
	}
	return min(1<<uint(exp), p.MaxPackets)
}

// PacketsFromCPULoad maps CPU load (percent) to an image packet budget
// (Fig 7): full budget at ≤CPULoadLo % falling linearly to 0 at
// ≥CPULoadHi % (under full load nothing is accepted).
func (p Params) PacketsFromCPULoad(cpuLoad float64) int {
	p = p.WithDefaults()
	lo, hi := p.CPULoadLo, p.CPULoadHi
	switch {
	case cpuLoad <= lo:
		return p.MaxPackets
	case cpuLoad >= hi:
		return 0
	}
	return int(math.Floor(float64(p.MaxPackets) * (hi - cpuLoad) / (hi - lo)))
}

// PacketsFromLoss maps an observed loss fraction to a packet budget:
// accepting a long stream over a lossy path wastes the sender's
// bandwidth on packets whose predecessors were dropped (prefix
// decoding stalls at the first gap), so the budget shrinks
// proportionally to the expected usable prefix.
func (p Params) PacketsFromLoss(loss float64) int {
	p = p.WithDefaults()
	if loss <= 0 {
		return p.MaxPackets
	}
	if loss >= 1 {
		return 0
	}
	return int(math.Floor(float64(p.MaxPackets) * (1 - loss)))
}

// StateKey names the state attributes the policy consumes.  They match
// the hostagent parameter vocabulary.
const (
	StatePageFaults = "page-faults"
	StateCPULoad    = "cpu-load"
	StateBandwidth  = "bandwidth"
	// StateLoss is the observed data-packet loss fraction in [0, 1],
	// reported by the RTP reception statistics.
	StateLoss = "loss-fraction"
)

// The policy's rules, in firing order: the index into ruleNames, whose
// entries label Decision.Fired, the audit and the rule counters.
const (
	pageFaultBudget = iota
	cpuLoadBudget
	lossBudget
	lowBandwidthSketch
	lowBandwidthText
	heavyLossSketch
)

var ruleNames = [...]string{
	pageFaultBudget:    "page-fault-budget",
	cpuLoadBudget:      "cpu-load-budget",
	lossBudget:         "loss-budget",
	lowBandwidthSketch: "low-bandwidth-sketch",
	lowBandwidthText:   "low-bandwidth-text",
	heavyLossSketch:    "heavy-loss-sketch",
}

// Decide applies the policy to state and returns the packet budget,
// the modality and the rules that fired, in this order (Contract is
// left to the Engine):
//
//   - page-fault-budget, cpu-load-budget, loss-budget: the Fig 6, Fig 7
//     and loss mappings, each when its key is present, of any kind (a
//     non-number reads as 0).  Budgets compose by minimum.
//   - low-bandwidth-sketch, low-bandwidth-text: a bandwidth number
//     below SketchBps degrades the modality to sketch, below TextBps to
//     text (the wired-client analogue of the base station's SIR
//     tiers); text wins when both fire.
//   - heavy-loss-sketch: a loss-fraction number at or above
//     HeavyLossSketch degrades a kept modality to sketch.
//
// A NaN is unobserved: no rule fires on it.
func (p Params) Decide(state selector.Attributes) Decision {
	p = p.WithDefaults()
	d := Decision{PacketBudget: Unlimited}
	// observed reads a key as a budget rule does, number only as a
	// threshold rule does; both report NaN for a key no rule may fire on.
	observed := func(key string) float64 {
		if v, ok := state[key]; ok {
			return v.Num()
		}
		return math.NaN()
	}
	number := func(key string) float64 {
		if v := state[key]; v.Kind() == selector.KindNumber {
			return v.Num()
		}
		return math.NaN()
	}
	fire := func(rule int) { d.Fired = append(d.Fired, ruleNames[rule]) }

	if pf := observed(StatePageFaults); !math.IsNaN(pf) {
		fire(pageFaultBudget)
		d.constrain(p.PacketsFromPageFaults(pf))
	}
	if cpu := observed(StateCPULoad); !math.IsNaN(cpu) {
		fire(cpuLoadBudget)
		d.constrain(p.PacketsFromCPULoad(cpu))
	}
	if loss := observed(StateLoss); !math.IsNaN(loss) {
		fire(lossBudget)
		d.constrain(p.PacketsFromLoss(loss))
	}
	bw := number(StateBandwidth)
	if bw < p.SketchBps {
		fire(lowBandwidthSketch)
		d.Modality = media.KindSketch
	}
	if bw < p.TextBps {
		fire(lowBandwidthText)
		d.Modality = media.KindText
	}
	if number(StateLoss) >= p.HeavyLossSketch {
		fire(heavyLossSketch)
		if d.Modality == "" {
			d.Modality = media.KindSketch
		}
	}
	return d
}
