package slo

import (
	"slices"
	"sync"
	"time"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// State is a client's conformance state.
type State uint8

// The conformance state machine.  Recovered is distinct from
// conforming so operators (and the effectiveness counters) can see
// that a client came back rather than never left.
const (
	StateConforming State = iota
	StateAtRisk
	StateViolated
	StateRecovered
	numStates
)

var stateNames = [numStates]string{"conforming", "at-risk", "violated", "recovered"}

// String returns the state label.
func (s State) String() string {
	if s < numStates {
		return stateNames[s]
	}
	return "state(?)"
}

// Transition is one recorded conformance-state change.
type Transition struct {
	AtNS      int64
	Client    string
	From, To  State
	Objective Objective // worst-burning objective at transition time
	BurnShort float64
	BurnLong  float64
}

// maxTransitions bounds the engine's transition log.
const maxTransitions = 256

// BurnPair is one objective's short/long-window burn at the last poll.
type BurnPair struct {
	Short, Long float64
}

// clientState is everything the engine tracks for one client.
type clientState struct {
	spec   Spec
	series [numObjectives]series

	state   State
	sinceNS int64

	violatedAtNS   int64
	deadlineScored bool
	violations     uint64

	burns     [numObjectives]BurnPair
	worst     Objective
	burnShort float64 // max over objectives
	burnLong  float64

	// radio is the client's radio picture as last observed
	// (ObserveRadio); radioOK is false until one is.
	radio   RadioSnapshot
	radioOK bool

	attributions []Attribution
}

// ClientStatus is a point-in-time conformance summary for one client
// (debug views, collab's session summary).
type ClientStatus struct {
	Client     string
	Class      string
	State      State
	SinceNS    int64
	Violations uint64
	Worst      Objective
	BurnShort  float64
	BurnLong   float64
	Burns      [numObjectives]BurnPair
}

// Engine evaluates per-client SLO specs over sliding windows and runs
// the conformance state machine.  It schedules nothing: its owner calls
// Poll.  All methods are safe for concurrent use.
type Engine struct {
	mu          sync.Mutex
	defaultSpec Spec
	clients     map[string]*clientState
	ids         []string // the keys of clients, ascending: Poll and Status walk them
	transitions []Transition

	// Poll idempotence: on a virtual clock many drive iterations can
	// land on the same instant; re-evaluating the state machine at an
	// unchanged time is pure waste, so Poll short-circuits it.
	polled     bool
	lastPollNS int64
}

// NewEngine creates an engine whose unregistered clients get spec
// (zero-value fields take defaults; a fully zero spec enables no
// objectives until clients are registered explicitly).
func NewEngine(spec Spec) *Engine {
	return &Engine{
		defaultSpec: spec.withDefaults(),
		clients:     make(map[string]*clientState),
	}
}

// SetDefaultSpec replaces the spec applied to clients first seen after
// this call; already-known clients keep theirs.
func (e *Engine) SetDefaultSpec(spec Spec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defaultSpec = spec.withDefaults()
}

func newClientState(spec Spec, nowNS int64) *clientState {
	cs := &clientState{spec: spec.withDefaults(), sinceNS: nowNS}
	for i := range cs.series {
		cs.series[i] = newSeries(cs.spec.LongWindow)
	}
	return cs
}

// Observe records one observation for (client, objective) at the
// instant at, on the clock Poll is driven by, auto-registering unknown
// clients with the default spec.  Classification against the spec
// target happens here; the window ring stores only counts.
func (e *Engine) Observe(client string, o Objective, v float64, at time.Time) {
	if o >= numObjectives {
		return
	}
	e.mu.Lock()
	e.observeLocked(client, o, v, at.UnixNano())
	e.mu.Unlock()
}

// ObserveRadio records a client's sampled radio picture at the instant
// at: its tier is one tier observation, and the snapshot is what the
// client's next violation bundle carries.
func (e *Engine) ObserveRadio(client string, snap RadioSnapshot, at time.Time) {
	e.mu.Lock()
	cs := e.observeLocked(client, ObjTier, float64(snap.Tier), at.UnixNano())
	cs.radio, cs.radioOK = snap, true
	e.mu.Unlock()
}

// observeLocked records one observation and returns the client's
// state.  Caller holds e.mu.
func (e *Engine) observeLocked(client string, o Objective, v float64, nowNS int64) *clientState {
	cs, ok := e.clients[client]
	if !ok {
		cs = newClientState(e.defaultSpec, nowNS)
		e.clients[client] = cs
		i, _ := slices.BinarySearch(e.ids, client)
		e.ids = slices.Insert(e.ids, i, client)
	}
	cs.series[o].observe(nowNS, v, cs.spec.bad(o, v))
	return cs
}

// Poll evaluates every client's windows at now and advances the
// conformance state machine, client by client in ID order, so the
// transitions of one poll reach the log, the counters and the session
// record in the same order every run.  Deterministic: tests drive it
// with synthetic clocks.  Idempotent per instant: a repeat Poll at
// exactly the time of the previous one (common when a virtual clock
// hasn't advanced between drive iterations) is a no-op.
func (e *Engine) Poll(now time.Time) {
	nowNS := now.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.polled && nowNS == e.lastPollNS {
		return
	}
	e.polled, e.lastPollNS = true, nowNS
	for _, client := range e.ids {
		e.pollClient(client, e.clients[client], nowNS)
	}
}

func (e *Engine) pollClient(client string, cs *clientState, nowNS int64) {
	sp := cs.spec
	cs.burnShort, cs.burnLong = 0, 0
	cs.worst = ObjDelivery
	for o := Objective(0); o < numObjectives; o++ {
		bs := sp.burnRate(o, &cs.series[o], nowNS, sp.ShortWindow)
		bl := sp.burnRate(o, &cs.series[o], nowNS, sp.LongWindow)
		cs.burns[o] = BurnPair{Short: bs, Long: bl}
		if bs > cs.burnShort {
			cs.burnShort, cs.worst = bs, o
		}
		if bl > cs.burnLong {
			cs.burnLong = bl
		}
	}

	// Multi-window rule: the short window reacts, the long window
	// confirms — a violation needs both burning.
	violate := cs.burnShort >= violateBurn && cs.burnLong >= atRiskBurn

	switch cs.state {
	case StateConforming:
		if violate {
			e.setState(client, cs, StateViolated, nowNS)
		} else if cs.burnShort >= atRiskBurn {
			e.setState(client, cs, StateAtRisk, nowNS)
		}
	case StateAtRisk:
		if violate {
			e.setState(client, cs, StateViolated, nowNS)
		} else if cs.burnShort < recoverBurn {
			e.setState(client, cs, StateConforming, nowNS)
		}
	case StateViolated:
		if !cs.deadlineScored && nowNS-cs.violatedAtNS > sp.RecoveryDeadline.Nanoseconds() {
			// Adaptation failed to restore conformance in time.
			cs.deadlineScored = true
			metrics.C(metrics.CtrAdaptationIneffective).Inc()
		}
		if cs.burnShort < recoverBurn {
			e.setState(client, cs, StateRecovered, nowNS)
		}
	case StateRecovered:
		if violate {
			e.setState(client, cs, StateViolated, nowNS)
		} else if cs.burnShort < atRiskBurn && nowNS-cs.sinceNS >= sp.HoldDown.Nanoseconds() {
			e.setState(client, cs, StateConforming, nowNS)
		}
	}

	label := `{client="` + metrics.EscapeLabel(client) + `"}`
	metrics.SetGauge("slo_state"+label, float64(cs.state))
	metrics.SetGauge("slo_burn_short"+label, cs.burnShort)
	metrics.SetGauge("slo_burn_long"+label, cs.burnLong)
}

// setState performs one transition with all its side effects: the
// transition log, counters, gauges, the session record, and — on entry
// into violated — attribution capture and the effectiveness clock.
// Caller holds e.mu.
func (e *Engine) setState(client string, cs *clientState, to State, nowNS int64) {
	from := cs.state
	if from == to {
		return
	}
	cs.state = to
	cs.sinceNS = nowNS

	tr := Transition{
		AtNS:      nowNS,
		Client:    client,
		From:      from,
		To:        to,
		Objective: cs.worst,
		BurnShort: cs.burnShort,
		BurnLong:  cs.burnLong,
	}
	if len(e.transitions) >= maxTransitions {
		copy(e.transitions, e.transitions[1:])
		e.transitions = e.transitions[:maxTransitions-1]
	}
	e.transitions = append(e.transitions, tr)
	metrics.C(metrics.CtrSLOTransitions).Inc()

	switch to {
	case StateViolated:
		cs.violations++
		cs.violatedAtNS = nowNS
		cs.deadlineScored = false
		metrics.C(metrics.CtrSLOViolations).Inc()
		metrics.C(metrics.SLOClientViolations(client)).Inc()
		a := captureAttribution(client, cs, nowNS)
		if len(cs.attributions) >= maxAttributions {
			copy(cs.attributions, cs.attributions[1:])
			cs.attributions = cs.attributions[:maxAttributions-1]
		}
		cs.attributions = append(cs.attributions, a)
	case StateRecovered:
		if from == StateViolated {
			ttr := nowNS - cs.violatedAtNS
			metrics.H("slo_time_to_recover_ns").Observe(ttr)
			metrics.C(metrics.CtrSLORecoveries).Inc()
			if !cs.deadlineScored {
				metrics.C(metrics.CtrAdaptationEffective).Inc()
			}
		}
	}

	obs.RecordEvent(obs.RecEvent{
		Type:   obs.RecTypeSLO,
		AtNS:   nowNS,
		Client: client,
		Name:   cs.worst.String(),
		Value:  cs.burnShort,
		Detail: from.String() + "->" + to.String(),
	})
}

// Status returns every tracked client's conformance summary in client
// ID order.
func (e *Engine) Status() []ClientStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ClientStatus, 0, len(e.ids))
	for _, client := range e.ids {
		cs := e.clients[client]
		st := ClientStatus{
			Client:     client,
			Class:      cs.spec.Class,
			State:      cs.state,
			SinceNS:    cs.sinceNS,
			Violations: cs.violations,
			Worst:      cs.worst,
			BurnShort:  cs.burnShort,
			BurnLong:   cs.burnLong,
		}
		copy(st.Burns[:], cs.burns[:])
		out = append(out, st)
	}
	return out
}

// Transitions returns up to max recorded transitions, oldest first
// (max <= 0 returns all).
func (e *Engine) Transitions(max int) []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	trs := e.transitions
	if max > 0 && len(trs) > max {
		trs = trs[len(trs)-max:]
	}
	return append([]Transition(nil), trs...)
}

// Attributions returns the client's retained violation bundles, oldest
// first.
func (e *Engine) Attributions(client string) []Attribution {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs, ok := e.clients[client]
	if !ok {
		return nil
	}
	return append([]Attribution(nil), cs.attributions...)
}
