package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/transport"
)

// Kernel is the receive side of a session endpoint with the I/O taken
// out (DESIGN.md §3): datagrams come in through HandlePacket, time
// comes in through Poll, and what the endpoint decides goes out as the
// Deliver and Control effects and as repair requests sent on the conn
// it was given.  It starts nothing, waits on nothing and reads no time
// source but the injected one, so the code core.Client feeds is the
// code the replay simulator attaches to a discrete-event net in handler
// mode.
//
// A kernel is single-threaded: its owner serializes HandlePacket, Poll
// and RepairStatus.
type Kernel struct {
	// Deliver receives every event and data message this endpoint's
	// profile admits: once, and in its sender's order when repair is on
	// (a gap is either filled first or explicitly abandoned).  Control
	// receives every admitted control message.  Either may be nil.
	//
	// The message is lent, not given: it is the kernel's own, refilled
	// for the next frame, so it and its attributes are valid only until
	// the callback returns.  What it points to may be kept — its strings
	// are ordinary immutable strings and its Body aliases the datagram,
	// which nobody writes — but not the *Message itself.
	Deliver func(*message.Message)
	Control func(*message.Message)

	conn   transport.Conn
	clk    clock.Clock
	pm     *profile.Manager
	env    message.Enveloper
	tx     dispatch.Unicaster // enveloped unicast on conn (shared with the owner's sends)
	unwrap *message.Unwrapper
	// ctrlSeq numbers control frames apart from the event/data
	// sequence, so they never leave gaps in it.
	ctrlSeq atomic.Uint32

	// Gap repair (Config.Repair != nil): per-sender streams restore
	// each sender's gapless event/data sequence before delivery, and
	// Poll NACKs the coordinator for their persistent gaps.  order ==
	// nil means repair is off.
	repair  RepairOptions // Config.Repair with its defaults
	order   map[string]*senderOrder
	streams []*senderOrder // order's streams sorted by sender: what Poll walks
	jitter  *rand.Rand     // seeded by RepairOptions.Seed

	// intern shares the strings every frame repeats (sender, attribute
	// names, short values) among the messages this kernel materialises,
	// and msg is the one message it materialises them into: what
	// Deliver and Control are lent.
	intern message.Interner
	msg    message.Message

	// Counters are atomic so an owner may read them from any goroutine.
	filtered, decodeErrors atomic.Uint64
}

// NewKernel builds the receive kernel for the endpoint attached as
// conn.  It reads cfg.MTU and cfg.Repair, and keeps time on conn's
// clock: the one its packets arrive on.
func NewKernel(conn transport.Conn, cfg Config) *Kernel {
	k := &Kernel{
		conn:   conn,
		clk:    conn.Clock(),
		pm:     profile.NewManager(conn.ID()),
		env:    message.Enveloper{MTU: cfg.MTU, Node: conn.ID()},
		unwrap: message.NewUnwrapper(),
	}
	k.unwrap.Node = conn.ID()
	k.tx = dispatch.Unicaster{Env: &k.env, Conn: conn}
	if cfg.Repair != nil {
		k.repair = cfg.Repair.withDefaults()
		k.order = make(map[string]*senderOrder)
		k.jitter = rand.New(rand.NewSource(k.repair.Seed))
	}
	return k
}

// ID returns the endpoint's substrate identifier.
func (k *Kernel) ID() string { return k.conn.ID() }

// HandlePacket ingests one datagram: unwrap (reassembling fragments),
// validate, drop self-deliveries, restore per-sender order when repair
// is on, match against the profile, and only then materialise the
// message and fire the effect — every endpoint of the session receives
// every frame, so what a frame costs the endpoints that reject it is
// the validation and nothing else.  Malformed input is counted, never
// returned or panicked on.
func (k *Kernel) HandlePacket(pkt transport.Packet) {
	frame, v, err := k.unwrap.Read(pkt.From, pkt.Data)
	if err != nil {
		k.decodeErrors.Add(1)
		if obs.Enabled() {
			obs.Drop(0, obs.StageMatch, k.ID()+": undecodable datagram from "+pkt.From)
		}
		return
	}
	if frame == nil {
		return // fragment of a larger message, not yet complete
	}
	if string(v.Sender()) == k.ID() {
		return // self-delivery via relays
	}
	if k.order != nil && (v.Kind() == message.KindEvent || v.Kind() == message.KindData) {
		// Repair mode: event/data frames are gapless per sender, so
		// they pass through the sender's order buffer first; profile
		// filtering happens on release (a filtered frame still
		// consumes its sequence number — it is not a gap).
		k.ingestOrdered(frame, v)
		return
	}
	k.process(v)
}

// PollInterval is how often the owner should call Poll: a quarter of
// the stall timeout (0 with repair off: never).
func (k *Kernel) PollInterval() time.Duration {
	if k.order == nil {
		return 0
	}
	if iv := k.repair.StallTimeout / 4; iv > 0 {
		return iv
	}
	return time.Millisecond
}

// RepairStatus is one sender stream's gap-repair state.
type RepairStatus struct {
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

// RepairStatus snapshots the per-sender gap-repair state (nil when
// repair is disabled).
func (k *Kernel) RepairStatus() map[string]RepairStatus {
	if k.order == nil {
		return nil
	}
	out := make(map[string]RepairStatus, len(k.streams))
	for _, so := range k.streams {
		w, parked := so.buf.Gap()
		out[so.sender] = RepairStatus{
			WaitingFor: w, Parked: parked, Attempts: so.attempts, Requests: so.requests,
			Repaired: so.repaired, Abandoned: so.abandoned, LastRepair: so.lastRepair,
		}
	}
	return out
}

// process interprets one validated, ordered (or orderless-mode) frame:
// semantic profile match, then — for a frame the profile admits — the
// message and the effect.
func (k *Kernel) process(v message.View) {
	msgID := obs.MsgID(v.Sender(), v.Seq())
	// Semantic interpretation: the frame's selector is evaluated
	// against this endpoint's profile; non-matching traffic is dropped
	// without any name-based addressing and without being decoded.  The
	// flattened view is memoized by the manager, so steady-state
	// dispatch costs a map read, not a deep copy plus a rebuild per frame.
	msp := obs.StartStage(msgID, obs.StageMatch)
	flat, _ := k.pm.FlatSnapshot()
	if !v.Matches(flat) {
		k.filtered.Add(1)
		if msp.Active() {
			msp.EndErr(k.ID() + ": filtered by profile")
		}
		return
	}
	msp.End()
	obs.AppendHop(msgID, k.ID(), obs.StageMatch)
	m := &k.msg
	v.MessageInto(m, &k.intern)

	switch m.Kind {
	case message.KindEvent, message.KindData:
		dsp := obs.StartStage(msgID, obs.StageDeliver)
		if k.Deliver != nil {
			k.Deliver(m)
		}
		dsp.End()
		obs.AppendHop(msgID, k.ID(), obs.StageDeliver)
	case message.KindControl:
		if k.Control != nil {
			k.Control(m)
		}
	}
}

// senderOrder restores one sender's gapless event/data sequence at a
// replica: the order buffer holds the frames waiting behind a gap until
// release — undecoded, so a frame that turns out to be filtered,
// evicted or abandoned never was — and the rest is the gap's repair
// state, which Poll advances.
type senderOrder struct {
	sender string
	buf    *session.OrderBuffer

	waitingFor   uint64    // gap seq as of the last poll
	parkedSince  time.Time // when the current gap first held parked events
	attempts     int       // requests issued for the current gap
	nextAction   time.Time // when to retry or abandon
	firstRequest time.Time // start of the repair-latency measurement

	requests, repaired, abandoned uint64
	lastRepair                    time.Duration
}

// ingestOrdered pushes an event/data frame through its sender's order
// buffer, parked in the event's Payload, and processes whatever becomes
// releasable, in order.  Duplicates — replayed frames already applied,
// or substrate duplicate deliveries — are discarded by the buffer.
func (k *Kernel) ingestOrdered(frame []byte, v message.View) {
	so, ok := k.order[string(v.Sender())]
	if !ok {
		// Framework clients number their messages from 1.
		so = &senderOrder{sender: string(v.Sender()), buf: session.NewOrderBuffer(0)}
		so.buf.SetLimit(k.repair.MaxPending)
		so.waitingFor, _ = so.buf.Gap()
		k.order[so.sender] = so
		i, _ := slices.BinarySearchFunc(k.streams, so.sender, func(s *senderOrder, name string) int {
			return strings.Compare(s.sender, name)
		})
		k.streams = slices.Insert(k.streams, i, so)
	}
	ev := session.Event{Seq: uint64(v.Seq()), Payload: frame, At: arrivedAt(k.clk)}
	k.release(so.buf.Push(ev), v)
}

// release processes released events in order.  arrived is the frame
// just pushed, which keeps its view (the zero View, whose seq 0 no
// sender uses, when nothing was); a frame that waited is parsed again,
// which cannot fail: Unwrapper.Read validated it before it parked.
func (k *Kernel) release(released []session.Event, arrived message.View) {
	observeWaits(k.clk, released)
	for _, ev := range released {
		v := arrived
		if ev.Seq != uint64(arrived.Seq()) {
			v, _ = message.Parse(ev.Payload)
		}
		obs.AppendHop(obs.MsgID(v.Sender(), v.Seq()), k.ID(), obs.StageReorder)
		k.process(v)
	}
}

// arrivedAt stamps an event pushed into a sender's order buffer: the
// instant on clk while instrumentation is on, else 0 (not stamped).
func arrivedAt(clk clock.Clock) int64 {
	if obs.Enabled() {
		return clk.Now().UnixNano()
	}
	return 0
}

// observeWaits feeds the reorder-stage histogram how long each stamped
// event of one release waited in its order buffer, on clk: the kernel
// calls it on every release, so a gap's stall is visible.  The
// coordinator holds nothing back, so it times nothing.
func observeWaits(clk clock.Clock, released []session.Event) {
	var now int64
	for _, ev := range released {
		if ev.At == 0 {
			continue
		}
		if now == 0 {
			now = clk.Now().UnixNano()
		}
		obs.StageHistogram(obs.StageReorder).Observe(now - ev.At)
	}
}

// Repair schedule constants (DESIGN.md §10).  The first NACK waits
// for StallTimeout, and so does the first retry; each later wait
// doubles up to maxBackoffFactor × StallTimeout, and every wait is
// spread uniformly over ±backoffJitter of itself so replicas repairing
// the same loss don't synchronize their NACKs.
const (
	maxBackoffFactor = 16
	backoffJitter    = 0.2
)

// AbandonSpan bounds how long a gap can stall before the kernel
// abandons it: the stall timeout plus every backoff at its cap-limited
// nominal length, plus half again as a margin for the ±backoffJitter
// spread and the poll grid.
func (r RepairOptions) AbandonSpan() time.Duration {
	r = r.withDefaults()
	span, backoff := r.StallTimeout, r.StallTimeout
	for range r.MaxRetries {
		span += backoff
		if backoff < maxBackoffFactor*r.StallTimeout {
			backoff *= 2
		}
	}
	return span + span/2
}

// Poll advances every sender stream's gap to now, in sender order, so a
// rerun draws the jitter and sends the NACKs the same way: a gap that
// has held parked events for StallTimeout is NACKed, retried on its
// backoff, and abandoned — skipped, liveness over completeness — once
// MaxRetries requests went unanswered.  A no-op with repair off.
func (k *Kernel) Poll(now time.Time) {
	for _, so := range k.streams {
		w, parked := so.buf.Gap()
		switch {
		case w != so.waitingFor:
			// Delivery progressed.  If we had asked for help, a replay
			// closed this gap: count it and record stall-to-fill latency.
			if so.attempts > 0 {
				k.repaired(so, now)
			}
			so.waitingFor, so.attempts, so.parkedSince = w, 0, time.Time{}
			if parked > 0 {
				so.parkedSince = now
			}
		case parked == 0:
			// Idle at the stream tail: nothing is missing that we can
			// see (tail loss is invisible until a later event parks).
			so.parkedSince, so.attempts = time.Time{}, 0
		case so.parkedSince.IsZero():
			so.parkedSince = now
		case so.attempts == 0:
			if now.Sub(so.parkedSince) >= k.repair.StallTimeout {
				so.firstRequest = now
				k.request(so, now)
			}
		case now.Before(so.nextAction):
			// Backing off.
		case so.attempts >= k.repair.MaxRetries:
			k.abandon(so, w)
		default:
			k.request(so, now)
		}
	}
}

// repaired counts a gap a replay closed after so.attempts requests.
func (k *Kernel) repaired(so *senderOrder, now time.Time) {
	so.repaired++
	so.lastRepair = now.Sub(so.firstRequest)
	metrics.C(metrics.CtrRepairSuccess).Inc()
	obs.StageHistogram(obs.StageRepair).Observe(so.lastRepair.Nanoseconds())
	if k.ID() != "" {
		slo.ObserveRepair(k.ID(), so.lastRepair, now)
	}
	if obs.Enabled() {
		obs.Note(0, obs.StageRepair, fmt.Sprintf(
			"stream %s: gap at %d repaired after %d request(s)", so.sender, so.waitingFor, so.attempts))
	}
}

// request NACKs so's gap once more and schedules what follows.  A failed
// send is only noted: it retries on the backoff either way, since a
// failed send and a lost reply look the same from here.
func (k *Kernel) request(so *senderOrder, now time.Time) {
	so.attempts++
	so.requests++
	so.nextAction = now.Add(k.backoff(so.attempts))
	metrics.C(metrics.CtrRepairRequests).Inc()
	if err := k.nack(so); err != nil && obs.Enabled() {
		obs.Note(0, obs.StageRepair, fmt.Sprintf(
			"stream %s: repair request %d failed: %v", so.sender, so.attempts, err))
	}
}

// backoff returns the wait after request attempt: StallTimeout doubled
// per earlier attempt, capped, then jittered.
func (k *Kernel) backoff(attempt int) time.Duration {
	limit := maxBackoffFactor * k.repair.StallTimeout
	d := k.repair.StallTimeout
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	j := 1 + backoffJitter*(2*k.jitter.Float64()-1)
	return max(time.Duration(float64(d)*j), time.Millisecond)
}

// abandon gives up on the gap at waitingFor: skip the stream past it so
// delivery resumes, noting what was given up.
func (k *Kernel) abandon(so *senderOrder, waitingFor uint64) {
	so.abandoned++
	so.attempts, so.parkedSince = 0, time.Time{}
	metrics.C(metrics.CtrRepairAbandoned).Inc()
	if obs.Enabled() {
		obs.Note(0, obs.StageRepair, fmt.Sprintf(
			"stream %s: gap at %d abandoned after %d requests, skipping", so.sender, waitingFor, k.repair.MaxRetries))
	}
	released, from, to := so.buf.Skip()
	if to > from && obs.Enabled() {
		obs.Drop(0, obs.StageRepair, fmt.Sprintf(
			"%s: abandoned seqs [%d,%d) from %s", k.ID(), from, to, so.sender))
	}
	k.release(released, message.View{})
}

// nack asks the coordinator for exactly what the stalled stream is
// missing: the holes its order buffer can see (the lowest maxNackHoles
// of them), then everything past the highest frame it holds — the one
// part of the request the receiver cannot bound, and what recovers the
// lost tail of a burst without waiting for a later frame to expose it.
func (k *Kernel) nack(so *senderOrder) error {
	var ranges [maxNackHoles]session.SeqRange
	holes, past := so.buf.Holes(ranges[:0], maxNackHoles)
	return k.sendHistoryRequest(k.repair.Coordinator, []message.Attr{
		{Name: attrCtrl, Value: selector.S(ctrlHistoryReq)},
		{Name: attrForSender, Value: selector.S(so.sender)},
	}, appendHoles(nil, holes, past))
}

// requestHistory unicasts a late joiner's catch-up request to the
// coordinator: the whole archive, in session order.  It touches only
// the atomic control sequence, the enveloper and the conn, so unlike
// the rest of the kernel it may be called from any goroutine.
func (k *Kernel) requestHistory(coordinator string) error {
	return k.sendHistoryRequest(coordinator, []message.Attr{{Name: attrCtrl, Value: selector.S(ctrlHistoryReq)}}, nil)
}

func (k *Kernel) sendHistoryRequest(coordinator string, attrs []message.Attr, body []byte) error {
	m := &message.Message{
		Kind:      message.KindControl,
		Sender:    k.ID(),
		Seq:       k.ctrlSeq.Add(1),
		Timestamp: k.clk.Now(),
		Body:      body,
	}
	m.SetAttrs(attrs)
	return k.tx.Deliver(coordinator, m)
}
