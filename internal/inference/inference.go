// Package inference implements the inference engine: a policy database
// that combines the client profile (interests, preferences,
// capabilities), the QoS contract, and the current system/network
// state into concrete adaptation decisions — how many image packets to
// accept, which resolution threshold to apply, and which modality to
// deliver.
//
// Policies are rules: a semantic-selector condition over the state
// attributes plus an action that refines the decision.  Rules fire in
// priority order; actions compose by tightening (a later rule can
// lower the packet budget but the engine keeps the minimum, so the
// most constrained resource governs — the paper's behaviour where
// either page faults or CPU load can throttle the image viewer).
package inference

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

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

// ConstrainPackets lowers the budget to at most n (composing by min).
func (d *Decision) ConstrainPackets(n int) {
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

// Rule is one policy: when the condition matches the state, the action
// refines the decision.
type Rule struct {
	// Name identifies the rule in Decision.Fired and logs.
	Name string
	// When guards the action; a nil selector always fires.
	When *selector.Selector
	// Then applies the rule's effect.  It must not retain state.
	Then func(state selector.Attributes, d *Decision)
	// Priority orders evaluation (higher first; ties keep insertion
	// order).
	Priority int

	// fired counts this rule's firings (pre-touched at AddRule so the
	// aqos_inference_rule_fired family lists every installed rule).
	fired *metrics.Counter
}

// Engine evaluates the policy database against observed state.
// It is safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex
	rules    []Rule
	seq      int
	order    []int // insertion sequence parallel to rules
	contract *profile.Contract
	owner    string
	clk      clock.Clock // stamps audit entries; nil = wall
}

// New creates an engine bound to a QoS contract (nil means an empty,
// always-satisfied contract).
func New(contract *profile.Contract) *Engine {
	if contract == nil {
		contract = profile.MustContract("empty")
	}
	return &Engine{contract: contract}
}

// SetOwner names the client this engine decides for; the name labels
// the engine's entries in the decision audit (/debug/decisions).
func (e *Engine) SetOwner(name string) {
	e.mu.Lock()
	e.owner = name
	e.mu.Unlock()
}

// SetClock pins audit timestamps to c (nil restores wall time).
func (e *Engine) SetClock(c clock.Clock) {
	e.mu.Lock()
	e.clk = c
	e.mu.Unlock()
}

// AddRule installs a policy rule.
func (e *Engine) AddRule(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("inference: rule without a name")
	}
	if r.Then == nil {
		return fmt.Errorf("inference: rule %q without an action", r.Name)
	}
	r.fired = touchRuleCounter(r.Name)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, r)
	e.order = append(e.order, e.seq)
	e.seq++
	// Stable priority-descending order.
	idx := make([]int, len(e.rules))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if e.rules[idx[a]].Priority != e.rules[idx[b]].Priority {
			return e.rules[idx[a]].Priority > e.rules[idx[b]].Priority
		}
		return e.order[idx[a]] < e.order[idx[b]]
	})
	rules := make([]Rule, len(e.rules))
	order := make([]int, len(e.rules))
	for i, j := range idx {
		rules[i], order[i] = e.rules[j], e.order[j]
	}
	e.rules, e.order = rules, order
	return nil
}

// Decide evaluates the contract and every matching rule against the
// state and returns the composed decision.  Each firing rule bumps its
// aqos_inference_rule_fired counter; when obs instrumentation is on,
// the decision is also recorded into the audit ring
// (/debug/decisions) with its input attributes and firing list.
func (e *Engine) Decide(state selector.Attributes) Decision {
	e.mu.RLock()
	rules := e.rules
	owner := e.owner
	clk := e.clk
	e.mu.RUnlock()

	d := Decision{PacketBudget: Unlimited, Contract: e.contract.Evaluate(state)}
	for _, r := range rules {
		if r.When != nil && !r.When.Matches(state) {
			continue
		}
		r.Then(state, &d)
		d.Fired = append(d.Fired, r.Name)
		r.fired.Inc()
	}
	if obs.Enabled() {
		at := clock.Or(clk).Now().UnixNano()
		recordAudit(AuditEntry{
			At:         at,
			Client:     owner,
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
				Client: owner,
				Name:   strings.Join(d.Fired, ","),
				Value:  float64(d.PacketBudget),
				Detail: string(d.Modality),
			})
		}
	}
	return d
}

// --- The paper's adaptation mappings (Figs 6 and 7) ---

// Params parameterizes the standard policy's adaptation mappings.  The
// seed hard-coded the paper's numbers (budget breakpoints at 30 and
// 100, bandwidth tiers at 64/16 kbit/s); making them an injectable
// struct lets the counterfactual replay harness (DESIGN.md §15) sweep
// candidate policies against a recorded session instead of rebuilding
// the engine around new constants.  Zero-valued fields take the
// paper's defaults, so Params{} behaves exactly like the seed.
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
// in powers of two down to 1 packet at ≥PageFaultHi.
func (p Params) PacketsFromPageFaults(pageFaults float64) int {
	p = p.WithDefaults()
	maxExp := int(math.Round(math.Log2(float64(p.MaxPackets))))
	lo, hi := p.PageFaultLo, p.PageFaultHi
	switch {
	case pageFaults <= lo:
		return 1 << uint(maxExp)
	case pageFaults >= hi:
		return 1
	}
	// Linear in the exponent: quantized gradation in powers of two.
	exp := int(math.Round(float64(maxExp) * (hi - pageFaults) / (hi - lo)))
	if exp < 0 {
		exp = 0
	}
	return 1 << uint(exp)
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
// the budget shrinks proportionally to the expected usable prefix.
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

// Budget composes the three packet mappings by minimum — the engine's
// tightening semantics without building an Engine.  NaN inputs mark an
// unobserved parameter and leave that mapping unconstrained.  The
// replay harness evaluates candidate Params against recorded host
// state through this single entry point.
func (p Params) Budget(cpuLoad, pageFaults, loss float64) int {
	p = p.WithDefaults()
	budget := p.MaxPackets
	min := func(n int) {
		if n < budget {
			budget = n
		}
	}
	if !math.IsNaN(pageFaults) {
		min(p.PacketsFromPageFaults(pageFaults))
	}
	if !math.IsNaN(cpuLoad) {
		min(p.PacketsFromCPULoad(cpuLoad))
	}
	if !math.IsNaN(loss) {
		min(p.PacketsFromLoss(loss))
	}
	return budget
}

// StateKey names the state attributes the default policy consumes.
// They match the hostagent parameter vocabulary.
const (
	StatePageFaults = "page-faults"
	StateCPULoad    = "cpu-load"
	StateBandwidth  = "bandwidth"
	// StateLoss is the observed data-packet loss fraction in [0, 1],
	// reported by the RTP reception statistics.
	StateLoss = "loss-fraction"
)

// PacketsFromLoss maps an observed loss fraction to a packet budget:
// accepting a long stream over a lossy path wastes the sender's
// bandwidth on packets whose predecessors were dropped (prefix
// decoding stalls at the first gap), so the budget shrinks
// proportionally to the expected usable prefix (wrapper over Params).
func PacketsFromLoss(loss float64, maxPackets int) int {
	return Params{MaxPackets: maxPackets}.PacketsFromLoss(loss)
}

// InstallPolicy installs the standard rule set on the engine with the
// given parameters:
//
//   - "page-fault-budget": Fig 6 mapping, fires when page-faults is
//     observed.
//   - "cpu-load-budget": Fig 7 mapping, fires when cpu-load is
//     observed.  Budgets compose by minimum.
//   - "low-bandwidth-sketch": below SketchBps the modality degrades to
//     sketch; below TextBps, to text (the wired-client analogue of the
//     base station's SIR tiers).
//   - "loss-budget" and "heavy-loss-sketch": observed data loss
//     shrinks the budget and, past HeavyLossSketch, the modality.
func InstallPolicy(e *Engine, p Params) error {
	p = p.WithDefaults()
	rules := []Rule{
		{
			Name:     "page-fault-budget",
			When:     selector.MustCompile("exists(" + StatePageFaults + ")"),
			Priority: 10,
			Then: func(state selector.Attributes, d *Decision) {
				d.ConstrainPackets(p.PacketsFromPageFaults(state[StatePageFaults].Num()))
			},
		},
		{
			Name:     "cpu-load-budget",
			When:     selector.MustCompile("exists(" + StateCPULoad + ")"),
			Priority: 10,
			Then: func(state selector.Attributes, d *Decision) {
				d.ConstrainPackets(p.PacketsFromCPULoad(state[StateCPULoad].Num()))
			},
		},
		{
			Name:     "low-bandwidth-sketch",
			When:     selector.MustCompile(fmt.Sprintf("%s < %g", StateBandwidth, p.SketchBps)),
			Priority: 5,
			Then: func(state selector.Attributes, d *Decision) {
				if d.Modality == "" || d.Modality == media.KindImage {
					d.Modality = media.KindSketch
				}
			},
		},
		{
			Name:     "low-bandwidth-text",
			When:     selector.MustCompile(fmt.Sprintf("%s < %g", StateBandwidth, p.TextBps)),
			Priority: 4, // after the sketch rule so text wins when both fire
			Then: func(state selector.Attributes, d *Decision) {
				d.Modality = media.KindText
			},
		},
		{
			Name:     "loss-budget",
			When:     selector.MustCompile("exists(" + StateLoss + ")"),
			Priority: 9,
			Then: func(state selector.Attributes, d *Decision) {
				d.ConstrainPackets(p.PacketsFromLoss(state[StateLoss].Num()))
			},
		},
		{
			Name:     "heavy-loss-sketch",
			When:     selector.MustCompile(fmt.Sprintf("%s >= %g", StateLoss, p.HeavyLossSketch)),
			Priority: 3,
			Then: func(state selector.Attributes, d *Decision) {
				if d.Modality == "" || d.Modality == media.KindImage {
					d.Modality = media.KindSketch
				}
			},
		},
	}
	for _, r := range rules {
		if err := e.AddRule(r); err != nil {
			return err
		}
	}
	return nil
}
