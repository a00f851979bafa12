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
// replays and lock notifications out on the conn it was given.  It
// archives each frame the first time it hears it, in the order it hears
// them, and orders nothing: per-sender order is restored in one place,
// the receiving Kernel.  Like Kernel it is single-threaded (the owner
// serializes every call) and runs unchanged under core.Coordinator and
// under the replay simulator's discrete-event net.
type CoordinatorKernel struct {
	conn  transport.Conn
	clk   clock.Clock
	group session.Group // its filter decides, once per sender, whose frames are archived

	env    message.Enveloper
	tx     dispatch.Unicaster // enveloped unicast of the kernel's own messages
	unwrap *message.Unwrapper
	intern message.Interner // the strings control messages repeat
	msg    message.Message  // the control message being handled, refilled per frame

	// log is the archive in session order, the order the frames were
	// heard: log[i] is the frame with session seq first+i.  Frames leave
	// from the front only, so first never moves back.
	log        []archivedFrame
	first      uint64
	archiveCap int                      // retained frames: maxArchived, lower in tests
	streams    map[string]*senderStream // per sender: archive index; nil if the group filter rejects it
	locks      session.ObjectLocks      // distributed lock arbitration
}

// archivedFrame is one archived original frame plus where its sender's
// index lists it, so the frame and its index entry leave together when
// the log is trimmed.
type archivedFrame struct {
	data      []byte
	senderSeq uint32
	stream    *senderStream
}

// maxArchived bounds the archive: past it the oldest frames leave the
// log, index entries with them.  No session in this repository comes
// near it (the benchmark's lossy chat archives about 25k frames); it
// bounds a coordinator that runs for ever, as maxRepairFrames bounds
// one answer.
const maxArchived = 1 << 16

// Control-message vocabulary for the history protocol.
const (
	attrCtrl       = "ctrl"
	ctrlHistoryReq = "history-request"
	// attrForSender scopes a history request to one sender's frames —
	// the NACK a gap-repair loop issues.  The message body lists the
	// sender sequence numbers wanted (nack.go).
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
// attached as conn.  group's filter decides whose frames are archived;
// conn's clock timestamps lock notifications.
func NewCoordinatorKernel(conn transport.Conn, group session.Group) *CoordinatorKernel {
	k := &CoordinatorKernel{
		conn:       conn,
		clk:        conn.Clock(),
		group:      group,
		unwrap:     message.NewUnwrapper(),
		first:      1,
		archiveCap: maxArchived,
		streams:    make(map[string]*senderStream),
	}
	k.env.Node = conn.ID()
	k.tx = dispatch.Unicaster{Env: &k.env, Conn: conn}
	k.unwrap.Node = conn.ID()
	return k
}

// ID returns the coordinator's substrate identifier.
func (k *CoordinatorKernel) ID() string { return k.conn.ID() }

// ArchivedEvents returns the number of archived events.
func (k *CoordinatorKernel) ArchivedEvents() int { return len(k.log) }

// HandlePacket ingests one datagram: an event or data frame is archived
// straight from the validated frame the first time it is heard, and a
// duplicate is dropped; control frames are materialised — history
// requests are answered with unicast replays, lock requests are
// arbitrated.  Malformed input is counted and dropped.
func (k *CoordinatorKernel) HandlePacket(pkt transport.Packet) {
	frame, v, _ := k.unwrap.Read(pkt.From, pkt.Data) // Read counts what it cannot read
	if frame == nil {
		return
	}
	switch v.Kind() {
	case message.KindEvent, message.KindData:
		if st := k.stream(v.Sender()); st != nil {
			k.archive(st, v.Seq(), frame)
		}
	case message.KindControl:
		m := &k.msg
		v.MessageInto(m, &k.intern)
		ctrl, ok := m.Attr(attrCtrl)
		if !ok {
			return
		}
		switch ctrl.Str() {
		case ctrlHistoryReq:
			forSender, _ := m.Attr(attrForSender)
			if forSender.Str() == "" {
				k.replay(m.Sender)
				return
			}
			var ranges [maxNackHoles + 1]session.SeqRange
			if want, ok := parseHoles(m.Body, ranges[:0]); ok {
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
		// A release from neither the holder nor a waiter changes nothing.
		if next, err := k.locks.Release(object, sender); err == nil && next != "" {
			k.notifyLock(next, ctrlLockGrant, object, next)
		}
	}
}

func (k *CoordinatorKernel) notifyLock(to, ctrl, object, holder string) {
	// Best effort: a requester that has left simply misses the notice.
	m := &message.Message{
		Kind:      message.KindControl,
		Sender:    k.ID(),
		Timestamp: k.clk.Now(),
	}
	m.SetAttrs([]message.Attr{
		{Name: attrCtrl, Value: selector.S(ctrl)},
		{Name: attrHolder, Value: selector.S(holder)},
		{Name: attrObject, Value: selector.S(object)},
	})
	_ = k.tx.Deliver(to, m)
}

// senderStream indexes what the archive holds of one sender.
type senderStream struct {
	sender string
	// archived lists the sender's frames still in the archive, ascending
	// by sender seq: what a NACK is answered from, and what tells a
	// duplicate.  Frames are mostly heard in sender order, so it grows
	// mostly at the tail; they leave in the order they were heard.
	archived []indexEntry
	// floor is the newest sender seq the archive cap has trimmed: a frame
	// at or below it is trimmed history heard again, or a straggler too
	// late to keep, and is dropped as a duplicate.
	floor uint32
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

// index lists senderSeq at sessionSeq and reports whether it was new: a
// seq the index already holds, or one at or below the floor, is a
// duplicate and is not listed.
func (st *senderStream) index(senderSeq uint32, sessionSeq uint64) bool {
	if senderSeq <= st.floor {
		return false
	}
	at := len(st.archived)
	if at > 0 && st.archived[at-1].senderSeq >= senderSeq {
		at = st.find(uint64(senderSeq)) // heard out of order: keep the index sorted
		if st.archived[at].senderSeq == senderSeq {
			return false
		}
	}
	st.archived = slices.Insert(st.archived, at, indexEntry{senderSeq, sessionSeq})
	return true
}

func (st *senderStream) unindex(senderSeq uint32) {
	st.floor = max(st.floor, senderSeq)
	if len(st.archived) > 0 && st.archived[0].senderSeq == senderSeq {
		st.archived = st.archived[1:]
		return
	}
	if at := st.find(uint64(senderSeq)); at < len(st.archived) && st.archived[at].senderSeq == senderSeq {
		st.archived = slices.Delete(st.archived, at, at+1)
	}
}

// stream returns the sender's stream, or nil if the group filter
// rejects the sender: the filter is read once per sender, against a
// profile that carries only its ID, and its frames are then archived
// or dropped for good.
func (k *CoordinatorKernel) stream(sender []byte) *senderStream {
	st, ok := k.streams[string(sender)]
	if ok {
		return st
	}
	if k.group.Admits(profile.New(string(sender))) {
		st = &senderStream{sender: string(sender)}
	}
	k.streams[string(sender)] = st
	return st
}

// archive appends one frame of st to the log as the next session event
// and indexes it, the first time it is heard; a duplicate is counted and
// dropped, since archiving it again would mint a second session event.
// frame aliases the datagram (or is the reassembler's fresh buffer),
// which nobody writes again: the archive keeps those bytes and resend
// only reads them.  Past the cap the oldest frames leave, index entries
// with them.
func (k *CoordinatorKernel) archive(st *senderStream, seq uint32, frame []byte) {
	if !st.index(seq, k.first+uint64(len(k.log))) {
		metrics.C(metrics.CtrArchiveDupDrops).Inc()
		if obs.Enabled() {
			obs.Drop(obs.MsgID(st.sender, seq), obs.StageArchive,
				k.ID()+": duplicate frame from "+st.sender+" dropped before archive")
		}
		return
	}
	obs.AppendHop(obs.MsgID(st.sender, seq), k.ID(), obs.StageArchive)
	k.log = append(k.log, archivedFrame{data: frame, senderSeq: seq, stream: st})
	if drop := len(k.log) - k.archiveCap; drop > 0 {
		// Slide the window instead of copying it: the cut frames are
		// cleared so their bytes are not retained, and append moves the
		// survivors only when the backing array runs out.
		for _, f := range k.log[:drop] {
			f.stream.unindex(f.senderSeq)
		}
		clear(k.log[:drop])
		k.log = k.log[drop:]
		k.first += uint64(drop)
	}
}

// replay is a late joiner's catch-up: every archived frame is unicast
// to the peer, in session order — the order the coordinator heard them.
// The joiner's own kernel puts each sender's frames back in order.
func (k *CoordinatorKernel) replay(to string) {
	for _, f := range k.log {
		if !k.resend(to, f) {
			return
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
	st := k.streams[sender]
	if st == nil {
		return
	}
	sent := 0
serve:
	for _, r := range want {
		for _, e := range st.archived[st.find(r.From):] {
			if uint64(e.senderSeq) > r.To {
				break
			}
			if sent == maxRepairFrames || !k.resend(to, k.log[e.sessionSeq-k.first]) {
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
func (k *CoordinatorKernel) resend(to string, f archivedFrame) bool {
	traceID := obs.MsgID(f.stream.sender, f.senderSeq)
	obs.AppendHop(traceID, k.ID(), obs.StageRepair)
	datagrams, err := k.env.WrapTraced(f.data, traceID) // plain Wrap while tracing is off
	return err == nil && k.tx.Send(to, datagrams) == nil
}
