// Package repair closes session-event gaps automatically.  The
// multicast substrate promises only limited in-order delivery
// assurance, so a replica's per-sender order buffer can stall forever
// on one lost frame.  The engine here watches each monitored stream's
// Gap() and, when a gap persists past a stall timeout, issues
// NACK-style history requests (the coordinator replays the original
// frames) with exponential backoff plus jitter and a bounded retry
// budget.  When the budget is exhausted the gap is abandoned: the
// stream is asked to skip past it (liveness over completeness), the
// abandonment is counted, and an obs trace entry records what was
// given up.
//
// The engine is transport- and clock-agnostic: it sees streams as
// Gap() sources, takes time as an argument to Poll and acts through
// two callbacks, so core.Kernel wires it to per-sender
// session.OrderBuffers and Coordinator history replay, but any
// gap-detecting consumer can reuse it.
package repair

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/slo"
)

// Stream is one monitored in-order stream: Gap reports the first
// missing sequence number and how many events are parked behind it
// (session.OrderBuffer satisfies this).
type Stream interface {
	Gap() (waitingFor uint64, parked int)
}

// Requester issues one NACK-style repair request: "replay stream's
// events with sequence numbers greater than afterSeq".  attempt is
// 1-based.  Errors are tolerated — the engine retries on its backoff
// schedule either way, since a failed send and a lost reply look the
// same from here.
type Requester func(stream string, afterSeq uint64, attempt int) error

// Abandoner is told a gap has exhausted its retry budget; it should
// skip the stream past waitingFor so delivery resumes.
type Abandoner func(stream string, waitingFor uint64)

// Config parameterizes the engine.
type Config struct {
	// StallTimeout is how long a gap must hold parked events before
	// the first repair request (default 200ms).
	StallTimeout time.Duration
	// MaxRetries is the total request budget per gap; after that many
	// requests and one more backoff without progress the gap is
	// abandoned (default 6, minimum 1).
	MaxRetries int
	// BaseBackoff is the wait after the first request; it doubles per
	// attempt (default StallTimeout).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 16 × BaseBackoff).
	MaxBackoff time.Duration
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of
	// itself so replicas repairing the same loss don't synchronize
	// their NACKs (default 0.2; set negative for none).
	JitterFrac float64
	// Interval is the gap-poll cadence (default StallTimeout/4).
	Interval time.Duration
	// Seed makes the jitter reproducible (0 means 1).
	Seed int64
	// Owner names the client this engine repairs for; repair
	// convergence latencies are attributed to it in the SLO engine
	// (empty = unattributed, SLO feed skipped).
	Owner string
}

func (c Config) withDefaults() Config {
	if c.StallTimeout <= 0 {
		c.StallTimeout = 200 * time.Millisecond
	}
	if c.MaxRetries < 1 {
		c.MaxRetries = 6
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = c.StallTimeout
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 16 * c.BaseBackoff
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	} else if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	if c.Interval <= 0 {
		c.Interval = c.StallTimeout / 4
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// StreamStatus is one stream's repair state snapshot.
type StreamStatus struct {
	WaitingFor uint64 // first missing seq the stream is stalled on
	Parked     int    // events held behind the gap
	Attempts   int    // requests issued for the current gap
	Requests   uint64 // total requests issued for this stream
	Repaired   uint64 // gaps closed after at least one request
	Abandoned  uint64 // gaps given up on
	// LastRepair is the first-request-to-observed-fill latency of the
	// most recently repaired gap (what the repair SLO is fed).
	LastRepair time.Duration
}

// streamState is the per-stream gap state machine.
type streamState struct {
	src Stream

	waitingFor   uint64    // gap seq as of the last poll
	parkedSince  time.Time // when the current gap first held parked events
	attempts     int       // requests issued for the current gap
	nextAction   time.Time // when to retry or abandon
	firstRequest time.Time // start of the repair-latency measurement

	requests   uint64
	repaired   uint64
	abandoned  uint64
	lastRepair time.Duration
}

// Engine runs the gap-repair loop over a set of monitored streams.
type Engine struct {
	cfg     Config
	request Requester
	abandon Abandoner

	mu      sync.Mutex
	rng     *rand.Rand
	streams map[string]*streamState
}

// New creates an engine.  request must be non-nil; abandon may be nil
// (gaps then stall until repaired, with abandonment only counted).
func New(cfg Config, request Requester, abandon Abandoner) *Engine {
	cfg = cfg.withDefaults()
	// (Counter families are registered by internal/metrics at init, so
	// aqos_repair_* expose at zero without any per-engine registration
	// here.)
	return &Engine{
		cfg:     cfg,
		request: request,
		abandon: abandon,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		streams: make(map[string]*streamState),
	}
}

// Watch adds (or replaces) a monitored stream.  Safe concurrently
// with Poll.
func (e *Engine) Watch(name string, s Stream) {
	w, _ := s.Gap()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.streams[name] = &streamState{src: s, waitingFor: w}
}

// Interval returns the gap-poll cadence: how often the owner should
// call Poll.
func (e *Engine) Interval() time.Duration { return e.cfg.Interval }

// Status snapshots every monitored stream's repair state.
func (e *Engine) Status() map[string]StreamStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]StreamStatus, len(e.streams))
	for name, st := range e.streams {
		w, parked := st.src.Gap()
		out[name] = StreamStatus{
			WaitingFor: w,
			Parked:     parked,
			Attempts:   st.attempts,
			Requests:   st.requests,
			Repaired:   st.repaired,
			Abandoned:  st.abandoned,
			LastRepair: st.lastRepair,
		}
	}
	return out
}

// actionKind discriminates deferred callback work (callbacks run
// outside the engine lock: they send on the network and re-enter
// stream state).
type actionKind uint8

const (
	actRequest actionKind = iota
	actAbandon
)

type action struct {
	kind    actionKind
	stream  string
	seq     uint64
	attempt int
}

// Poll runs one scan of every stream's gap state machine at time now.
// The engine has no loop of its own: the owner calls Poll every
// Interval, on whatever clock it lives on.
func (e *Engine) Poll(now time.Time) {
	var actions []action
	e.mu.Lock()
	// Scan in sorted stream order: map iteration would randomize both
	// the jitter-rng draw order and the callback order, making replay
	// runs diverge (counterfactual replay needs byte-identical reruns).
	names := make([]string, 0, len(e.streams))
	for name := range e.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := e.streams[name]
		w, parked := st.src.Gap()
		if w != st.waitingFor {
			// The gap moved: delivery progressed.  If we had asked for
			// help, this gap was closed by a replay — count the repair
			// and record stall-to-fill latency on the repair stage.
			if st.attempts > 0 {
				st.repaired++
				st.lastRepair = now.Sub(st.firstRequest)
				metrics.C(metrics.CtrRepairSuccess).Inc()
				obs.StageHistogram(obs.StageRepair).Observe(st.lastRepair.Nanoseconds())
				if e.cfg.Owner != "" {
					slo.ObserveRepair(e.cfg.Owner, st.lastRepair)
				}
				if obs.Enabled() {
					obs.Note(0, obs.StageRepair, fmt.Sprintf(
						"stream %s: gap at %d repaired after %d request(s)", name, st.waitingFor, st.attempts))
				}
			}
			st.waitingFor = w
			st.attempts = 0
			if parked > 0 {
				st.parkedSince = now
			} else {
				st.parkedSince = time.Time{}
			}
			continue
		}
		if parked == 0 {
			// Idle at the stream tail: nothing is missing that we can
			// see (tail loss is invisible until a later event parks).
			st.parkedSince = time.Time{}
			st.attempts = 0
			continue
		}
		if st.parkedSince.IsZero() {
			st.parkedSince = now
			continue
		}
		if st.attempts == 0 {
			if now.Sub(st.parkedSince) >= e.cfg.StallTimeout {
				st.attempts = 1
				st.firstRequest = now
				st.requests++
				st.nextAction = now.Add(e.backoffLocked(1))
				actions = append(actions, action{actRequest, name, w - 1, 1})
			}
			continue
		}
		if now.Before(st.nextAction) {
			continue
		}
		if st.attempts >= e.cfg.MaxRetries {
			st.abandoned++
			st.attempts = 0
			st.parkedSince = time.Time{}
			actions = append(actions, action{actAbandon, name, w, 0})
			continue
		}
		st.attempts++
		st.requests++
		st.nextAction = now.Add(e.backoffLocked(st.attempts))
		actions = append(actions, action{actRequest, name, w - 1, st.attempts})
	}
	e.mu.Unlock()

	for _, a := range actions {
		switch a.kind {
		case actRequest:
			metrics.C(metrics.CtrRepairRequests).Inc()
			if err := e.request(a.stream, a.seq, a.attempt); err != nil && obs.Enabled() {
				obs.Note(0, obs.StageRepair, fmt.Sprintf(
					"stream %s: repair request %d failed: %v", a.stream, a.attempt, err))
			}
		case actAbandon:
			metrics.C(metrics.CtrRepairAbandoned).Inc()
			if obs.Enabled() {
				obs.Note(0, obs.StageRepair, fmt.Sprintf(
					"stream %s: gap at %d abandoned after %d requests, skipping",
					a.stream, a.seq, e.cfg.MaxRetries))
			}
			if e.abandon != nil {
				e.abandon(a.stream, a.seq)
			}
		}
	}
}

// backoffLocked returns the wait before attempt n+1 given that
// attempt n was just issued: BaseBackoff doubled per attempt, capped
// at MaxBackoff, spread by ±JitterFrac.
func (e *Engine) backoffLocked(attempt int) time.Duration {
	d := e.cfg.BaseBackoff
	for i := 1; i < attempt && d < e.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > e.cfg.MaxBackoff {
		d = e.cfg.MaxBackoff
	}
	if f := e.cfg.JitterFrac; f > 0 {
		j := 1 + f*(2*e.rng.Float64()-1)
		d = time.Duration(float64(d) * j)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
