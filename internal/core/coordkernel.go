package core

import (
	"slices"
	"sort"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// CoordinatorKernel is the archiving coordinator with the I/O taken
// out, the counterpart of Kernel: datagrams in through HandlePacket,
// replays and lock notifications out on the conn it was given.  Like
// Kernel it is single-threaded (the owner serializes every call) and
// runs unchanged under core.Coordinator's receive loop and under the
// replay simulator's discrete-event net.
type CoordinatorKernel struct {
	conn transport.Conn
	clk  clock.Clock
	sess *session.Session

	env    message.Enveloper
	tx     dispatch.Unicaster // enveloped unicast of the kernel's own messages
	unwrap *message.Unwrapper
	intern message.Interner // the strings control messages and archived events repeat

	frames     map[uint64]archivedFrame // session seq → original frame + sender seq
	archiveCap int                      // retained events (0 = unlimited)
	streams    map[string]*senderStream // per-sender arrival reordering and archive index
	locks      *session.ObjectLocks     // distributed lock arbitration
}

// archivedFrame is one archived original frame plus where its sender's
// index lists it, so the frame and its index entry leave together when
// the archive cap trims the event.
type archivedFrame struct {
	data      []byte
	senderSeq uint32
	stream    *senderStream
}

// Control-message vocabulary for the history protocol.
const (
	attrCtrl       = "ctrl"
	ctrlHistoryReq = "history-request"
	attrAfterSeq   = "after-seq"
	// attrForSender scopes a history request to one sender's frames —
	// the NACK a gap-repair loop issues.  The message body then lists
	// the sender sequence numbers wanted (nack.go); without a body it
	// is everything past attrAfterSeq, counted in that sender's own
	// sequence space.
	attrForSender = "for-sender"
)

// maxRepairFrames is the most frames one NACK is answered with,
// whatever it asks for.  A requester behind more than that sees its
// gap move and asks again; a hostile one costs the coordinator this
// much work per datagram and no more.  It is a quarter of the default
// receive buffer, so an answer does not overflow the inbox it is
// repairing.
const maxRepairFrames = 256

// NewCoordinatorKernel builds the coordinator kernel for the endpoint
// attached as conn.  group describes the session being archived; clk
// (required) timestamps lock notifications.
func NewCoordinatorKernel(conn transport.Conn, group session.Group, clk clock.Clock) *CoordinatorKernel {
	k := &CoordinatorKernel{
		conn:    conn,
		clk:     clk,
		sess:    session.New(group),
		unwrap:  message.NewUnwrapper(),
		frames:  make(map[uint64]archivedFrame),
		streams: make(map[string]*senderStream),
		locks:   session.NewObjectLocks(),
	}
	k.env.Node = conn.ID()
	k.tx = dispatch.Unicaster{Env: &k.env, Conn: conn}
	k.unwrap.Node = conn.ID()
	return k
}

// ID returns the coordinator's substrate identifier.
func (k *CoordinatorKernel) ID() string { return k.conn.ID() }

// SetArchiveCap bounds retained history to the most recent n events
// (0 = unlimited), now and as later events are archived.
func (k *CoordinatorKernel) SetArchiveCap(n int) {
	k.sess.SetArchiveCap(n)
	k.archiveCap = n
	if n <= 0 {
		return
	}
	// Drop frames the session no longer remembers: session seqs are
	// contiguous, so frames holds the run ending at last and what
	// survives is its last n.  Oldest first, which is the cheap end of
	// each sender's index.
	last := k.sess.LastSeq()
	for seq := last - uint64(len(k.frames)) + 1; seq+uint64(n) <= last; seq++ {
		k.evict(seq)
	}
}

// evict forgets the frame of a session event the archive cap trimmed.
func (k *CoordinatorKernel) evict(sessionSeq uint64) {
	if f, ok := k.frames[sessionSeq]; ok {
		delete(k.frames, sessionSeq)
		f.stream.unindex(f.senderSeq)
	}
}

// ArchivedEvents returns the number of archived events.
func (k *CoordinatorKernel) ArchivedEvents() int { return len(k.frames) }

// HandlePacket ingests one datagram: event and data frames are put in
// their sender's order and archived straight from the validated frame
// (the archive keeps the bytes; the session event needs only sender,
// seq, app and object); control frames are materialised — history
// requests are answered with unicast replays, lock requests are
// arbitrated.  Malformed input is counted and dropped.
func (k *CoordinatorKernel) HandlePacket(pkt transport.Packet) {
	frame, v, _ := k.unwrap.Read(pkt.From, pkt.Data) // Read counts what it cannot read
	if frame == nil {
		return
	}
	switch v.Kind() {
	case message.KindEvent, message.KindData:
		// The substrate may reorder frames; the archive must reflect
		// each sender's causal order, so frames pass through a
		// per-sender reorder stage keyed on the sender sequence number.
		st, ordered := k.reorder(v, frame)
		for _, f := range ordered {
			k.archive(st, f)
		}
	case message.KindControl:
		m := v.Message(&k.intern)
		ctrl, ok := m.Attr(attrCtrl)
		if !ok {
			return
		}
		switch ctrl.Str() {
		case ctrlHistoryReq:
			after := uint64(0)
			if v, ok := m.Attr(attrAfterSeq); ok {
				after = uint64(v.Num())
			}
			forSender, _ := m.Attr(attrForSender)
			if forSender.Str() == "" {
				k.replay(m.Sender, after)
				return
			}
			var ranges [maxNackHoles + 1]session.SeqRange
			want, ok := parseHoles(m.Body, ranges[:0])
			if len(m.Body) == 0 {
				want = append(want, session.SeqRange{From: after + 1, To: maxSenderSeq})
			}
			if ok {
				k.repair(m.Sender, forSender.Str(), want)
			}
		case ctrlLockRequest, ctrlLockRelease:
			if object, ok := m.Attr(attrObject); ok {
				k.handleLock(m.Sender, ctrl.Str(), object.Str())
			}
		}
	}
}

// handleLock arbitrates a lock request or release and notifies the
// affected clients.
func (k *CoordinatorKernel) handleLock(sender, ctrl, object string) {
	switch ctrl {
	case ctrlLockRequest:
		if err := k.locks.TryAcquire(object, sender); err != nil {
			k.notifyLock(sender, ctrlLockWait, object, k.locks.Holder(object))
			return
		}
		k.notifyLock(sender, ctrlLockGrant, object, sender)
	case ctrlLockRelease:
		next, err := k.locks.Release(object, sender)
		if err != nil {
			return // not the holder: ignore
		}
		if next != "" {
			k.notifyLock(next, ctrlLockGrant, object, next)
		}
	}
}

func (k *CoordinatorKernel) notifyLock(to, ctrl, object, holder string) {
	// Best effort: a requester that has left simply misses the notice.
	_ = k.tx.Deliver(to, &message.Message{
		Kind:      message.KindControl,
		Sender:    k.ID(),
		Timestamp: k.clk.Now(),
		Attrs: selector.Attributes{
			attrCtrl:   selector.S(ctrl),
			attrObject: selector.S(object),
			attrHolder: selector.S(holder),
		},
	})
}

// orderedFrame is one frame on its way into the archive: its bytes
// (read-only, shared with the datagram they arrived in) and what its
// session event records of it.
type orderedFrame struct {
	seq         uint32
	app, object string
	frame       []byte
}

// senderStream restores one sender's frame order and indexes what was
// archived of it.
type senderStream struct {
	sender  string
	next    uint32
	pending map[uint32]orderedFrame
	// missing records sequence numbers the flush path skipped past
	// without archiving: a straggler carrying one of them is genuine
	// lost history and archives once; any other seq below next is a
	// duplicate delivery of an already-archived frame and is dropped.
	missing map[uint32]struct{}
	// archived lists the sender's frames still in the archive, ascending
	// by sender seq: what a NACK is answered from.  Frames are archived
	// in sender order but for stragglers and leave oldest first, so it
	// grows at the tail and shrinks at the head.
	archived []indexEntry
}

// indexEntry locates one archived frame by its sender seq.
type indexEntry struct {
	senderSeq  uint32
	sessionSeq uint64
}

// find returns the position of the first entry at or past senderSeq.
func (st *senderStream) find(senderSeq uint64) int {
	return sort.Search(len(st.archived), func(i int) bool { return uint64(st.archived[i].senderSeq) >= senderSeq })
}

func (st *senderStream) index(senderSeq uint32, sessionSeq uint64) {
	at := len(st.archived)
	if at > 0 && st.archived[at-1].senderSeq >= senderSeq {
		at = st.find(uint64(senderSeq)) // a straggler: keep the order
	}
	st.archived = slices.Insert(st.archived, at, indexEntry{senderSeq, sessionSeq})
}

func (st *senderStream) unindex(senderSeq uint32) {
	if len(st.archived) > 0 && st.archived[0].senderSeq == senderSeq {
		st.archived = st.archived[1:]
		return
	}
	if at := st.find(uint64(senderSeq)); at < len(st.archived) && st.archived[at].senderSeq == senderSeq {
		st.archived = slices.Delete(st.archived, at, at+1)
	}
}

// maxStreamPending bounds per-sender buffering; past it the stream
// flushes in ascending order (archive completeness beats a perfect
// order when the substrate genuinely lost a frame).
const maxStreamPending = 64

// maxStreamMissing bounds the skipped-seq memory per sender; past it
// the oldest (smallest) entries give way and an extremely late
// straggler is treated as a duplicate — the archive-safe direction.
const maxStreamMissing = 1024

// noteMissing records [from, to) as skipped without archiving.
func (st *senderStream) noteMissing(from, to uint32) {
	for s := from; s < to; s++ {
		if len(st.missing) >= maxStreamMissing {
			oldest, have := uint32(0), false
			for m := range st.missing {
				if !have || m < oldest {
					oldest, have = m, true
				}
			}
			delete(st.missing, oldest)
		}
		st.missing[s] = struct{}{}
	}
}

// keep takes what the archive retains of a frame it is not dropping.
// frame aliases the datagram (or is the reassembler's fresh buffer),
// which nobody writes again: the archive keeps those bytes and resend
// only reads them.
func (k *CoordinatorKernel) keep(v message.View, frame []byte) orderedFrame {
	app, _ := v.Attr(message.AttrApp, &k.intern)
	object, _ := v.Attr(message.AttrObject, &k.intern)
	return orderedFrame{seq: v.Seq(), app: app.Str(), object: object.Str(), frame: frame}
}

// reorder returns the frame's sender stream and the frames now
// releasable in that sender's order.
func (k *CoordinatorKernel) reorder(v message.View, frame []byte) (*senderStream, []orderedFrame) {
	st, ok := k.streams[string(v.Sender())]
	if !ok {
		// Framework clients number their messages from 1, so a fresh
		// stream anchors there; a coordinator attaching mid-session
		// catches up through the flush path below.
		st = &senderStream{
			sender:  string(v.Sender()),
			next:    1,
			pending: make(map[uint32]orderedFrame),
			missing: make(map[uint32]struct{}),
		}
		k.streams[st.sender] = st
	}
	seq := v.Seq()
	if seq < st.next {
		if _, lost := st.missing[seq]; lost {
			// A straggler the flush path skipped past: genuine lost
			// history, archive it now (exactly once).
			delete(st.missing, seq)
			return st, []orderedFrame{k.keep(v, frame)}
		}
		// Duplicate delivery of an already-archived frame: committing
		// it again would mint a second session event.
		metrics.C(metrics.CtrArchiveDupDrops).Inc()
		if obs.Enabled() {
			obs.Drop(obs.MsgID(st.sender, seq), obs.StageReorder,
				k.ID()+": duplicate frame from "+st.sender+" dropped before archive")
		}
		return st, nil
	}
	st.pending[seq] = k.keep(v, frame)

	var out []orderedFrame
	for {
		f, ok := st.pending[st.next]
		if !ok {
			break
		}
		delete(st.pending, st.next)
		out = append(out, f)
		st.next++
	}
	if len(st.pending) > maxStreamPending {
		// Flush: a frame was probably lost.  Release in ascending
		// order, remembering the skipped seqs as repairable holes.
		seqs := make([]uint32, 0, len(st.pending))
		for s := range st.pending {
			seqs = append(seqs, s)
		}
		for i := 1; i < len(seqs); i++ { // insertion sort, tiny n
			for j := i; j > 0 && seqs[j] < seqs[j-1]; j-- {
				seqs[j], seqs[j-1] = seqs[j-1], seqs[j]
			}
		}
		for _, s := range seqs {
			out = append(out, st.pending[s])
			delete(st.pending, s)
			st.noteMissing(st.next, s)
			st.next = s + 1
		}
	}
	return st, out
}

// archive commits one ordered frame of st as the next session event
// and keeps its bytes.
func (k *CoordinatorKernel) archive(st *senderStream, f orderedFrame) {
	// The session requires membership for Commit; the coordinator
	// auto-registers senders it hears (they are in the multicast group
	// by construction).
	if !k.sess.IsMember(st.sender) {
		if err := k.sess.Join(profile.New(st.sender)); err != nil {
			return // filtered by the group: not archived
		}
	}
	ev, err := k.sess.Commit(st.sender, f.app, f.object, nil)
	if err != nil {
		return
	}
	obs.AppendHop(obs.MsgID(st.sender, f.seq), k.ID(), obs.StageArchive)
	k.frames[ev.Seq] = archivedFrame{data: f.frame, senderSeq: f.seq, stream: st}
	st.index(f.seq, ev.Seq)
	if n := uint64(k.archiveCap); n > 0 && ev.Seq > n {
		// The event this commit trimmed is exactly n back; its frame
		// goes with it.
		k.evict(ev.Seq - n)
	}
}

// replay is a late joiner's catch-up: every archived frame whose
// session seq exceeds after is unicast to the peer, in archive order,
// the archive read a page at a time.
func (k *CoordinatorKernel) replay(to string, after uint64) {
	var page [64]session.Event
	for n := k.sess.HistoryPage(after, page[:]); n > 0; n = k.sess.HistoryPage(after, page[:]) {
		after = page[n-1].Seq
		for _, ev := range page[:n] {
			if f, ok := k.frames[ev.Seq]; ok && !k.resend(to, ev.Sender, f) {
				return
			}
		}
	}
}

// repair answers a NACK: the archived frames of sender whose own seqs
// fall in the wanted ranges (ascending, as parseHoles returns them)
// are unicast to the peer in sender order, maxRepairFrames at most.
// Each range is looked up in the sender's index, so a request costs
// the frames it is answered with and a binary search per range,
// however wide the ranges and however long the archive; seqs the
// archive never held or no longer holds are skipped at no cost.
// Serving a frame twice is harmless — the requester's order buffer
// discards what it has already applied — so nothing is remembered
// between requests.
func (k *CoordinatorKernel) repair(to, sender string, want []session.SeqRange) {
	st, ok := k.streams[sender]
	if !ok {
		return
	}
	sent := 0
serve:
	for _, r := range want {
		for _, e := range st.archived[st.find(r.From):] {
			if uint64(e.senderSeq) > r.To {
				break
			}
			if sent == maxRepairFrames || !k.resend(to, sender, k.frames[e.sessionSeq]) {
				break serve
			}
			sent++
		}
	}
	metrics.C(metrics.CtrRepairReplayedFrames).Add(uint64(sent))
}

// resend unicasts one archived frame, reporting whether it went out.
// The frame continues its original trace with a repair hop and carries
// the trace extension again, so the requester sees the replay on the
// message's own timeline.
func (k *CoordinatorKernel) resend(to, sender string, f archivedFrame) bool {
	traceID := obs.MsgID(sender, f.senderSeq)
	obs.AppendHop(traceID, k.ID(), obs.StageRepair)
	datagrams, err := k.env.WrapTraced(f.data, traceID) // plain Wrap while tracing is off
	return err == nil && k.tx.Send(to, datagrams) == nil
}
