package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/repair"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// Kernel is the receive side of a session endpoint with the I/O taken
// out (DESIGN.md §3): datagrams come in through HandlePacket, time
// comes in through Poll, and what the endpoint decides goes out as the
// Deliver and Control effects and as repair requests sent on the conn
// it was given.  It starts nothing, waits on nothing and reads no time
// source but the injected one, so the code that runs under
// core.Client's receive loop is the code the replay simulator attaches
// to a discrete-event net in handler mode.
//
// A kernel is single-threaded: its owner serializes HandlePacket, Poll
// and RepairStatus.
type Kernel struct {
	// Deliver receives every event and data message this endpoint's
	// profile admits: once, and in its sender's order when repair is on
	// (a gap is either filled first or explicitly abandoned).  Control
	// receives every admitted control message.  Either may be nil.
	Deliver func(*message.Message)
	Control func(*message.Message)

	conn    transport.Conn
	clk     clock.Clock
	pm      *profile.Manager
	env     message.Enveloper
	tx      dispatch.Unicaster // enveloped unicast on conn (shared with the owner's sends)
	unwrap  *message.Unwrapper
	lamport session.LamportClock
	// ctrlSeq numbers control frames apart from the event/data
	// sequence, so they never leave gaps in it.
	ctrlSeq atomic.Uint32

	// Gap repair (Config.Repair != nil): per-sender order buffers
	// restore each sender's gapless event/data sequence before
	// delivery; the repair engine NACKs the coordinator for persistent
	// gaps.  order == nil means repair is off.
	maxPending int
	order      map[string]*senderOrder
	rep        *repair.Engine

	// intern shares the strings every frame repeats (sender, attribute
	// names, short values) among the messages this kernel materialises.
	intern message.Interner

	// Counters are atomic so an owner may read them from any goroutine.
	filtered, decodeErrors atomic.Uint64
}

// NewKernel builds the receive kernel for the endpoint attached as
// conn.  It reads cfg.MTU, cfg.Repair and cfg.Clock; cfg.Clock must be
// set — a kernel never falls back to the wall clock on its own.
func NewKernel(conn transport.Conn, cfg Config) *Kernel {
	k := &Kernel{
		conn:   conn,
		clk:    cfg.Clock,
		pm:     profile.NewManager(conn.ID()),
		env:    message.Enveloper{MTU: cfg.MTU, Node: conn.ID()},
		unwrap: message.NewUnwrapper(),
	}
	k.unwrap.Node = conn.ID()
	k.tx = dispatch.Unicaster{Env: &k.env, Conn: conn}
	if r := cfg.Repair; r != nil {
		k.maxPending = r.MaxPending
		if k.maxPending <= 0 {
			k.maxPending = defaultMaxPending
		}
		k.order = make(map[string]*senderOrder)
		k.rep = repair.New(repair.Config{
			StallTimeout: r.StallTimeout,
			MaxRetries:   r.MaxRetries,
			Interval:     r.Interval,
			Seed:         r.Seed,
			Owner:        conn.ID(),
		}, func(stream string, _ uint64, _ int) error {
			return k.nack(r.Coordinator, stream)
		}, k.repairAbandon)
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
		k.ingestOrdered(v)
		return
	}
	k.process(v)
}

// Poll advances the repair engine to now: stalled gaps are NACKed on
// their backoff schedule and, once the retry budget is spent,
// abandoned.  A no-op with repair off.
func (k *Kernel) Poll(now time.Time) {
	if k.rep != nil {
		k.rep.Poll(now)
	}
}

// PollInterval is how often the owner should call Poll (0 with repair
// off: never).
func (k *Kernel) PollInterval() time.Duration {
	if k.rep == nil {
		return 0
	}
	return k.rep.Interval()
}

// RepairStatus snapshots the per-sender gap-repair state (nil when
// repair is disabled).
func (k *Kernel) RepairStatus() map[string]repair.StreamStatus {
	if k.rep == nil {
		return nil
	}
	return k.rep.Status()
}

// process interprets one validated, ordered (or orderless-mode) frame:
// semantic profile match, then — for a frame the profile admits — the
// message, its Lamport witness and the effect.
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
	m := v.Message(&k.intern)
	if lam, ok := m.Attrs["lamport"]; ok {
		k.lamport.Witness(uint64(lam.Num()))
	}

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
// replica: the order buffer tracks sequence state (and is what the
// repair engine watches), parked holds the frames waiting behind a gap
// until release — as views, so a frame that turns out to be filtered,
// evicted or abandoned was never decoded.
type senderOrder struct {
	sender string
	buf    *session.OrderBuffer
	parked map[uint64]message.View
}

// newSenderBuffer is one sender's order buffer, at a replica or the
// coordinator alike: framework clients number their messages from 1,
// and held frames are stamped on the kernel's clock.
func newSenderBuffer(clk clock.Clock) *session.OrderBuffer {
	b := session.NewOrderBuffer(0)
	b.SetClock(clk)
	return b
}

// defaultMaxPending bounds each sender's order buffer when
// RepairOptions.MaxPending is zero.
const defaultMaxPending = 512

// ingestOrdered pushes an event/data frame through its sender's order
// buffer and processes whatever becomes releasable, in order.
// Duplicates — replayed frames already applied, or substrate
// duplicate deliveries — are discarded here.
func (k *Kernel) ingestOrdered(v message.View) {
	so, ok := k.order[string(v.Sender())]
	if !ok {
		so = &senderOrder{
			sender: string(v.Sender()),
			buf:    newSenderBuffer(k.clk),
			parked: make(map[uint64]message.View),
		}
		// Overflow evicts the farthest-ahead frame from the buffer;
		// drop its parked view too (runs under the buffer's lock).
		so.buf.SetLimit(k.maxPending, func(ev session.Event) { delete(so.parked, ev.Seq) })
		k.order[so.sender] = so
		k.rep.Watch(so.sender, so.buf)
	}
	seq := uint64(v.Seq())
	if w, _ := so.buf.Gap(); seq < w {
		return // already applied (or skipped): a duplicate or replay echo
	}
	so.parked[seq] = v
	k.release(so, so.buf.Push(session.Event{Seq: seq, Sender: so.sender}))
}

// release processes released events in order.
func (k *Kernel) release(so *senderOrder, released []session.Event) {
	for _, ev := range released {
		if v, ok := so.parked[ev.Seq]; ok {
			delete(so.parked, ev.Seq)
			obs.AppendHop(obs.MsgID(v.Sender(), v.Seq()), k.ID(), obs.StageReorder)
			k.process(v)
		}
	}
}

// repairAbandon is the engine's budget-exhausted callback: skip the
// stream past the unrepairable gap so delivery resumes, noting what
// was given up.
func (k *Kernel) repairAbandon(stream string, waitingFor uint64) {
	so, ok := k.order[stream]
	if !ok {
		return
	}
	released, from, to := so.buf.Skip()
	if to > from && obs.Enabled() {
		obs.Drop(0, obs.StageRepair, fmt.Sprintf(
			"%s: abandoned seqs [%d,%d) from %s", k.ID(), from, to, stream))
	}
	k.release(so, released)
}

// nack asks the coordinator for exactly what the stalled stream is
// missing: the holes its order buffer can see (the lowest maxNackHoles
// of them), then everything past the highest frame it holds — the one
// part of the request the receiver cannot bound, and what recovers the
// lost tail of a burst without waiting for a later frame to expose it.
func (k *Kernel) nack(coordinator, stream string) error {
	so, ok := k.order[stream]
	if !ok {
		return nil
	}
	var ranges [maxNackHoles]session.SeqRange
	holes, past := so.buf.Holes(ranges[:0], maxNackHoles)
	return k.sendHistoryRequest(coordinator, selector.Attributes{
		attrCtrl:      selector.S(ctrlHistoryReq),
		attrForSender: selector.S(stream),
	}, appendHoles(nil, holes, past))
}

// requestHistory unicasts a history request to the coordinator: the
// whole session past session-seq afterSeq, or with forSender set that
// sender's frames past its own seq afterSeq (a NACK with no hole list:
// one open range).  It touches only the atomic control sequence, the
// enveloper and the conn, so unlike the rest of the kernel it may be
// called from any goroutine.
func (k *Kernel) requestHistory(coordinator, forSender string, afterSeq uint64) error {
	attrs := selector.Attributes{
		attrCtrl:     selector.S(ctrlHistoryReq),
		attrAfterSeq: selector.N(float64(afterSeq)),
	}
	if forSender != "" {
		attrs[attrForSender] = selector.S(forSender)
	}
	return k.sendHistoryRequest(coordinator, attrs, nil)
}

func (k *Kernel) sendHistoryRequest(coordinator string, attrs selector.Attributes, body []byte) error {
	return k.tx.Deliver(coordinator, &message.Message{
		Kind:      message.KindControl,
		Sender:    k.ID(),
		Seq:       k.ctrlSeq.Add(1),
		Timestamp: k.clk.Now(),
		Attrs:     attrs,
		Body:      body,
	})
}
