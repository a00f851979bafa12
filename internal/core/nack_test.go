package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// repairRig is the gap-repair loop on a virtual clock: a raw publisher
// multicasting numbered event frames, receiver kernels and a
// coordinator kernel in handler mode on a DESNet, everything driven
// from the test goroutine.
type repairRig struct {
	*vnet
	coord *CoordinatorKernel
	pub   transport.Conn
	env   message.Enveloper
	seq   uint32

	recvs    []*Kernel
	applied  [][]uint32 // per receiver: the publisher's seqs, in Deliver order
	nextPoll time.Time
	// maxAnswer is the most frames the coordinator sent between two
	// poll ticks.
	maxAnswer uint64
}

const (
	rigCoord = "coordinator"
	rigPub   = "pub"
)

func rigRecv(i int) string { return fmt.Sprintf("recv-%d", i) }

func newRepairRig(t *testing.T, seed int64, receivers int) *repairRig {
	t.Helper()
	r := &repairRig{vnet: newVNet(t, seed)}
	r.coord = NewCoordinatorKernel(r.handler(rigCoord, func(p transport.Packet) { r.coord.HandlePacket(p) }),
		session.Group{Objective: "repair-rig"})
	r.pub = r.handler(rigPub, func(transport.Packet) {})
	r.recvs = make([]*Kernel, receivers)
	r.applied = make([][]uint32, receivers)
	for i := range r.recvs {
		i := i
		conn := r.handler(rigRecv(i), func(p transport.Packet) { r.recvs[i].HandlePacket(p) })
		r.recvs[i] = NewKernel(conn, Config{Repair: &RepairOptions{
			Coordinator:  rigCoord,
			StallTimeout: 32 * time.Millisecond, // polled every 8ms
			MaxRetries:   4,
			Seed:         seed + int64(i),
		}})
		r.recvs[i].Deliver = func(m *message.Message) { r.applied[i] = append(r.applied[i], m.Seq) }
	}
	r.nextPoll = r.clk.Now().Add(r.recvs[0].PollInterval())
	return r
}

// setLinks configures every publisher→receiver link.  The coordinator's
// links stay clean: the archive hears everything and its answers
// arrive.
func (r *repairRig) setLinks(l transport.Link) {
	for i := range r.recvs {
		r.SetLink(rigPub, rigRecv(i), l)
	}
}

// publish multicasts the next frame; with lost set no receiver gets it.
func (r *repairRig) publish(lost bool) {
	r.t.Helper()
	if lost {
		r.setLinks(transport.Link{Down: true})
		defer r.setLinks(transport.Link{})
	}
	r.seq++
	datagrams, err := r.env.WrapMessage(&message.Message{
		Kind: message.KindEvent, Sender: rigPub, Seq: r.seq, Body: []byte(fmt.Sprintf("line %d", r.seq)),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	for _, d := range datagrams {
		if err := r.pub.Multicast(d); err != nil {
			r.t.Fatal(err)
		}
	}
}

// run advances virtual time by d, polling every receiver on its
// repair interval.
func (r *repairRig) run(d time.Duration) {
	end := r.clk.Now().Add(d)
	for !r.nextPoll.After(end) {
		r.clk.AdvanceTo(r.nextPoll)
		sent := r.replayed()
		for _, k := range r.recvs {
			k.Poll(r.nextPoll)
		}
		r.clk.Advance(0) // deliver the NACKs and their answers (clean links have no delay)
		r.maxAnswer = max(r.maxAnswer, r.replayed()-sent)
		r.nextPoll = r.nextPoll.Add(r.recvs[0].PollInterval())
	}
	r.clk.AdvanceTo(end)
}

func (r *repairRig) replayed() uint64 { return r.Stats(rigCoord).Sent }

func (r *repairRig) lost() (n uint64) {
	for i := range r.recvs {
		n += r.Stats(rigRecv(i)).Dropped
	}
	return n
}

// archived returns the publisher's seqs in the order the coordinator
// archived them.
func (r *repairRig) archived() (out []uint32) {
	for _, f := range r.coord.log {
		out = append(out, f.senderSeq)
	}
	return out
}

// assertConverged checks that every receiver applied exactly the
// archive, in order, and gave nothing up.
func (r *repairRig) assertConverged() {
	r.t.Helper()
	want := r.archived()
	if len(want) != int(r.seq) {
		r.t.Fatalf("coordinator archived %d of %d frames", len(want), r.seq)
	}
	for i, k := range r.recvs {
		if !reflect.DeepEqual(r.applied[i], want) {
			r.t.Errorf("%s applied %d frames, not the archive's %d in order: %v", k.ID(), len(r.applied[i]), len(want), r.applied[i])
		}
		for stream, st := range k.RepairStatus() {
			if st.Abandoned != 0 {
				r.t.Errorf("%s abandoned %d gaps of %s", k.ID(), st.Abandoned, stream)
			}
		}
	}
}

// TestRepairReplaysOnlyHoles: over a seeded lossy, jittery link the
// coordinator re-sends about what was lost — at most twice as many
// frames, against the whole suffix per NACK it used to — and every
// receiver still ends up with the archive exactly.
func TestRepairReplaysOnlyHoles(t *testing.T) {
	before := metrics.C(metrics.CtrRepairReplayedFrames).Load()
	r := newRepairRig(t, 16, 3)
	r.setLinks(transport.Link{Loss: 0.1, Delay: 2 * time.Millisecond, Jitter: time.Millisecond})
	for i := 0; i < 600; i++ {
		r.publish(false)
		r.run(2 * time.Millisecond)
	}
	// One frame over healed links exposes whatever the tail lost.
	r.setLinks(transport.Link{})
	r.publish(false)
	r.run(time.Second)

	r.assertConverged()
	lost, replayed := r.lost(), r.replayed()
	t.Logf("lost %d, replayed %d (%.2f per lost frame)", lost, replayed, float64(replayed)/float64(lost))
	if lost < 100 {
		t.Fatalf("only %d frames lost: the link is not exercising repair", lost)
	}
	if replayed < lost || replayed > 2*lost {
		t.Errorf("coordinator re-sent %d frames for %d lost, want between 1x and 2x", replayed, lost)
	}
	if got := metrics.C(metrics.CtrRepairReplayedFrames).Load() - before; got != replayed {
		t.Errorf("%s moved by %d, coordinator sent %d frames", metrics.CtrRepairReplayedFrames, got, replayed)
	}
}

// TestRepairRecoversLostTail: the last frames of a burst are lost and
// nothing follows to park behind them, so no hole names them.  The
// NACK for an earlier gap still brings them back, through its open
// range.
func TestRepairRecoversLostTail(t *testing.T) {
	r := newRepairRig(t, 1, 1)
	for seq := 1; seq <= 20; seq++ {
		r.publish(seq == 5 || seq >= 19)
	}
	r.run(time.Second)
	r.assertConverged()
	if got := r.replayed(); got != 3 {
		t.Errorf("coordinator re-sent %d frames, want exactly the 3 lost (5, 19, 20)", got)
	}
	if st := r.recvs[0].RepairStatus()[rigPub]; st.Requests != 1 {
		t.Errorf("%d NACKs sent, want 1", st.Requests)
	}
}

// TestRepairConvergesOverRounds: a receiver behind more than one
// NACK's worth — more holes than the list carries, then one hole wider
// than the per-request budget — gets there in successive rounds, each
// answered within the budget and with nothing sent twice.
func TestRepairConvergesOverRounds(t *testing.T) {
	t.Run("many holes", func(t *testing.T) {
		r := newRepairRig(t, 2, 1)
		const holes = 2*maxNackHoles + 22
		for i := 0; i < holes; i++ {
			r.publish(true)
			r.publish(false)
		}
		r.run(2 * time.Second)
		r.assertConverged()
		if got := r.replayed(); got != holes {
			t.Errorf("coordinator re-sent %d frames, want the %d lost", got, holes)
		}
		if st := r.recvs[0].RepairStatus()[rigPub]; st.Requests != 3 {
			t.Errorf("%d NACKs sent, want 3 (%d holes at %d a NACK)", st.Requests, holes, maxNackHoles)
		}
		if r.maxAnswer != maxNackHoles {
			t.Errorf("largest answer %d frames, want a full list of %d", r.maxAnswer, maxNackHoles)
		}
	})
	t.Run("wide hole", func(t *testing.T) {
		r := newRepairRig(t, 3, 1)
		const width = 2*maxRepairFrames + 50
		r.publish(false)
		for i := 0; i < width; i++ {
			r.publish(true)
		}
		r.publish(false)
		r.run(2 * time.Second)
		r.assertConverged()
		if got := r.replayed(); got != width {
			t.Errorf("coordinator re-sent %d frames, want the %d lost", got, width)
		}
		if r.maxAnswer != maxRepairFrames {
			t.Errorf("largest answer %d frames, want the budget of %d", r.maxAnswer, maxRepairFrames)
		}
	})
}

// captureConn is a coordinator attachment that records what is sent.
type captureConn struct {
	nullConn
	sent [][]byte
}

// newCaptureConn is id's capturing attachment on a virtual clock
// standing at now.
func newCaptureConn(id string, now time.Time) *captureConn {
	return &captureConn{nullConn: nullConn{id, clock.NewVirtual(now)}}
}

func (c *captureConn) Give(_ string, d []byte) error {
	c.sent = append(c.sent, d)
	return nil
}

// sentSeqs decodes the event/data frames in c.sent to (sender, seq)
// and counts the rest.
func (c *captureConn) sentSeqs(t testing.TB) (frames []string, other int) {
	t.Helper()
	un := message.NewUnwrapper()
	for _, d := range c.sent {
		frame, err := un.Unwrap("coordinator", d)
		if err != nil || frame == nil {
			t.Fatalf("coordinator sent an unreadable datagram: %v", err)
		}
		m, err := message.Decode(frame)
		if err != nil {
			t.Fatalf("coordinator sent an undecodable frame: %v", err)
		}
		if m.Kind == message.KindEvent || m.Kind == message.KindData {
			frames = append(frames, fmt.Sprintf("%s/%d", m.Sender, m.Seq))
		} else {
			other++
		}
	}
	return frames, other
}

// feed hands the coordinator one event frame from sender.
func feed(t testing.TB, k *CoordinatorKernel, sender string, seq uint32) {
	t.Helper()
	var env message.Enveloper
	d, err := env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: sender, Seq: seq, Body: []byte{byte(seq)}})
	if err != nil {
		t.Fatal(err)
	}
	k.HandlePacket(transport.Packet{From: sender, Data: d[0]})
}

// nackDatagram is a sender-scoped history request from a receiver,
// with the given body.
func nackDatagram(t testing.TB, from, sender string, body []byte) []byte {
	t.Helper()
	var env message.Enveloper
	d, err := env.WrapMessage(&message.Message{
		Kind: message.KindControl, Sender: from, Seq: 1, Body: body,
		Attrs: selector.Attributes{attrCtrl: selector.S(ctrlHistoryReq), attrForSender: selector.S(sender)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d[0]
}

// TestCoordinatorNeverAnswersTheGroup: the requester's ID comes off the
// wire, and the substrate's frozen send reads "" as the whole group.  A
// history request that names nobody must be answered to nobody — not
// with the archive multicast to the session.
func TestCoordinatorNeverAnswersTheGroup(t *testing.T) {
	conn := newCaptureConn("coordinator", time.Unix(0, 0))
	k := NewCoordinatorKernel(conn, session.Group{Objective: "anon"})
	for seq := uint32(1); seq <= 3; seq++ {
		feed(t, k, "alice", seq)
	}
	k.HandlePacket(transport.Packet{From: "x", Data: nackDatagram(t, "", "alice", appendHoles(nil, nil, 1))})
	k.HandlePacket(transport.Packet{From: "x", Data: nackDatagram(t, "", "", nil)}) // the late-join form
	if len(conn.sent) != 0 {
		t.Fatalf("a request from %q was answered with %d datagrams", "", len(conn.sent))
	}
	k.HandlePacket(transport.Packet{From: "x", Data: nackDatagram(t, "bob", "alice", appendHoles(nil, nil, 1))})
	if frames, _ := conn.sentSeqs(t); len(frames) != 3 {
		t.Fatalf("a request from bob was answered with %v, want alice's three frames", frames)
	}
}

// indexed is how many frames the per-sender indexes list.
func indexed(k *CoordinatorKernel) (n int) {
	for _, st := range k.streams {
		if st != nil { // nil: a sender the group filter rejects
			n += len(st.archived)
		}
	}
	return n
}

// TestCoordinatorAnswersPastAMissedFrame: a coordinator that never
// heard s's seq 1 archives 2..4 as they come, so a NACK for [1, ∞) is
// answered with all three at once, not after a later flush.
func TestCoordinatorAnswersPastAMissedFrame(t *testing.T) {
	conn := newCaptureConn("coordinator", time.Unix(0, 0))
	k := NewCoordinatorKernel(conn, session.Group{Objective: "missed"})
	for seq := uint32(2); seq <= 4; seq++ {
		feed(t, k, "s", seq)
	}
	k.HandlePacket(transport.Packet{From: "r", Data: nackDatagram(t, "r", "s", appendHoles(nil, nil, 1))})
	frames, other := conn.sentSeqs(t)
	if want := []string{"s/2", "s/3", "s/4"}; !reflect.DeepEqual(frames, want) || other != 0 {
		t.Errorf("NACK answered with %v (+%d other), want %v", frames, other, want)
	}
}

// TestCoordinatorIndexFollowsArchiveCap: the per-sender index holds
// exactly the frames the archive holds — for a straggler archived out
// of its sender's order, when the cap is lowered on a full archive, and
// as later events push old ones out — and a straggler at or below its
// sender's floor, the newest seq the cap trimmed, is dropped and
// counted.
func TestCoordinatorIndexFollowsArchiveCap(t *testing.T) {
	conn := newCaptureConn("coordinator", time.Unix(0, 0))
	k := NewCoordinatorKernel(conn, session.Group{Objective: "cap"})
	agree := func(when string, want int) {
		t.Helper()
		if k.ArchivedEvents() != want || indexed(k) != want {
			t.Fatalf("%s: %d frames archived, %d indexed, want %d of each", when, k.ArchivedEvents(), indexed(k), want)
		}
	}
	// alice's seqs 1 and 30 are late: 2..70 but 30 archive as they come.
	for seq := uint32(2); seq <= 70; seq++ {
		if seq != 30 {
			feed(t, k, "alice", seq)
		}
		feed(t, k, "bob", seq-1)
	}
	agree("under the default cap", 2*69-1)
	// The straggler is archived last but indexed first.
	feed(t, k, "alice", 1)
	agree("after the straggler", 2*69)
	if got := k.streams["alice"].archived[0].senderSeq; got != 1 {
		t.Errorf("alice's index starts at seq %d, want the straggler's 1", got)
	}
	k.archiveCap = 40 // takes hold at the next frame
	feed(t, k, "alice", 71)
	agree("after lowering the cap", 40)
	for seq := uint32(72); seq <= 90; seq++ {
		feed(t, k, "alice", seq)
		agree("as events arrive", 40)
	}
	// The cap trimmed alice past 30: her seq 30 is too late to keep.
	drops := metrics.C(metrics.CtrArchiveDupDrops).Load()
	feed(t, k, "alice", 30)
	agree("after a straggler below the floor", 40)
	if got := metrics.C(metrics.CtrArchiveDupDrops).Load() - drops; got != 1 {
		t.Errorf("%d duplicate drops counted for the straggler below the floor, want 1", got)
	}

	// A NACK for evicted, never-archived and live seqs gets the live ones.
	k.HandlePacket(transport.Packet{From: "r", Data: nackDatagram(t, "r", "alice",
		appendHoles(nil, []session.SeqRange{{From: 1, To: 3}, {From: 30, To: 30}, {From: 80, To: 81}}, 90))})
	frames, other := conn.sentSeqs(t)
	if want := []string{"alice/1", "alice/80", "alice/81", "alice/90"}; !reflect.DeepEqual(frames, want) || other != 0 {
		t.Errorf("NACK answered with %v (+%d other), want %v", frames, other, want)
	}
}

// TestCoordinatorArchiveByteBound: when the frames are large enough
// that the byte bound binds before the frame bound, the archive keeps
// at most the bound's bytes of frames, the newest, trims the oldest
// with their index entries, and raises each sender's floor past what
// it trimmed, so a trimmed frame heard again is a duplicate.
func TestCoordinatorArchiveByteBound(t *testing.T) {
	conn := newCaptureConn("coordinator", time.Unix(0, 0))
	k := NewCoordinatorKernel(conn, session.Group{Objective: "bytes"})
	k.archiveByteCap = 10 << 10
	var env message.Enveloper
	send := func(sender string, seq uint32, size int) {
		t.Helper()
		d, err := env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: sender, Seq: seq, Body: make([]byte, size)})
		if err != nil {
			t.Fatal(err)
		}
		k.HandlePacket(transport.Packet{From: sender, Data: d[0]})
	}
	const frames = 60
	for seq := uint32(1); seq <= frames; seq++ {
		send("alice", seq, 300+10*int(seq))
		send("bob", seq, 700)
		retained := 0
		for _, f := range k.log {
			retained += len(f.data)
		}
		if retained > k.archiveByteCap || retained != k.archivedBytes {
			t.Fatalf("after seq %d: %d bytes retained, %d counted, bound %d", seq, retained, k.archivedBytes, k.archiveByteCap)
		}
		if k.ArchivedEvents() != indexed(k) {
			t.Fatalf("after seq %d: %d frames archived, %d indexed", seq, k.ArchivedEvents(), indexed(k))
		}
	}
	if last := k.log[len(k.log)-1]; last.stream.sender != "bob" || last.senderSeq != frames {
		t.Errorf("the newest archived frame is %s/%d, want bob/%d", last.stream.sender, last.senderSeq, frames)
	}
	for _, sender := range []string{"alice", "bob"} {
		st := k.streams[sender]
		if st.floor == 0 || st.archived[0].senderSeq != st.floor+1 {
			t.Errorf("%s: floor %d, oldest archived seq %d; want a raised floor just below the oldest", sender, st.floor, st.archived[0].senderSeq)
		}
	}
	drops := metrics.C(metrics.CtrArchiveDupDrops).Load()
	send("alice", 1, 10)
	if got := metrics.C(metrics.CtrArchiveDupDrops).Load() - drops; got != 1 {
		t.Errorf("%d duplicate drops counted for a trimmed frame heard again, want 1", got)
	}
}

func TestHoleListRoundTrip(t *testing.T) {
	var buf [maxNackHoles + 1]session.SeqRange
	for _, tc := range []struct {
		holes []session.SeqRange
		past  uint64
	}{
		{nil, 1},
		{[]session.SeqRange{{From: 7, To: 7}}, 9},
		{[]session.SeqRange{{From: 1, To: 3}, {From: 4, To: 4}, {From: 1000, To: 70000}}, 70002},
		{[]session.SeqRange{{From: 1, To: math.MaxUint32 - 1}}, math.MaxUint32},
	} {
		body := appendHoles(nil, tc.holes, tc.past)
		got, ok := parseHoles(body, buf[:0])
		want := append(append([]session.SeqRange(nil), tc.holes...), session.SeqRange{From: tc.past, To: maxSenderSeq})
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("holes %v past %d: parsed %v ok=%v, want %v", tc.holes, tc.past, got, ok, want)
		}
	}
	var full []session.SeqRange
	for i := uint64(0); i < maxNackHoles; i++ {
		full = append(full, session.SeqRange{From: 2*i + 1, To: 2*i + 1})
	}
	if _, ok := parseHoles(appendHoles(nil, full, 1000), buf[:0]); !ok {
		t.Errorf("a full list of %d holes and the open range refused", maxNackHoles)
	}
	for name, body := range map[string][]byte{
		"truncated varint":         {0x80},
		"varint past 64 bits":      bytes.Repeat([]byte{0xff}, 11),
		"from past the seq space":  appendHoles(nil, nil, math.MaxUint32+1),
		"to past the seq space":    appendHoles(nil, []session.SeqRange{{From: 5, To: math.MaxUint32 + 5}}, math.MaxUint32+9),
		"range after the last seq": appendHoles(nil, []session.SeqRange{{From: 5, To: math.MaxUint32}}, math.MaxUint32+1),
		"one range too many":       appendHoles(nil, append(full, session.SeqRange{From: 500, To: 501}), 1000),
	} {
		if got, ok := parseHoles(body, buf[:0]); ok {
			t.Errorf("%s: accepted as %v", name, got)
		}
	}
}
