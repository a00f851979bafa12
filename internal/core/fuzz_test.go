package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// nullConn is a substrate attachment that goes nowhere, on the clock
// its test drives.
type nullConn struct {
	id  string
	clk clock.Clock
}

func (c nullConn) ID() string                  { return c.id }
func (c nullConn) Clock() clock.Clock          { return c.clk }
func (nullConn) Multicast([]byte) error        { return nil }
func (nullConn) Unicast(string, []byte) error  { return nil }
func (nullConn) Give(string, []byte) error     { return nil }
func (nullConn) Recv() <-chan transport.Packet { return nil }
func (nullConn) Close() error                  { return nil }

// FuzzKernelHandlePacket feeds one arbitrary datagram to a kernel that
// is stalled on a gap with its order buffer full — the state in which
// a hostile sequence number has the most room to do damage.  Whatever
// the bytes, the kernel must not panic, must count (not propagate) a
// decode failure exactly when the codec rejects the datagram, and must
// keep every sender's parked state within MaxPending.
//
// The seed corpus (testdata/fuzz/FuzzKernelHandlePacket) is real
// output of Enveloper.WrapMessage: a chat event, an RTP data packet
// under a selector, a NACK control frame with no body (carrying an
// after-seq attribute nothing reads) and one with a hole list, the
// first fragment of a 3 KB event at MTU 1024, and
// the traced (0x02/0x03) envelope forms of a whole frame and of a
// fragment.
func FuzzKernelHandlePacket(f *testing.F) {
	const maxPending = 4
	var env message.Enveloper
	f.Fuzz(func(t *testing.T, datagram []byte) {
		clk := clock.NewVirtual(time.Unix(100, 0))
		k := NewKernel(nullConn{"fuzz", clk}, Config{Repair: &RepairOptions{
			Coordinator: "coord", StallTimeout: time.Millisecond, MaxPending: maxPending,
		}})
		k.Deliver = func(*message.Message) {}
		k.Control = func(*message.Message) {}
		// Sender "s" lost seq 1; 2..5 fill its order buffer to the limit.
		for seq := uint32(2); seq < 2+maxPending; seq++ {
			d, err := env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: "s", Seq: seq})
			if err != nil {
				t.Fatal(err)
			}
			k.HandlePacket(transport.Packet{From: "s", Data: d[0]})
		}

		wantErrors := k.decodeErrors.Load()
		if frame, err := message.NewUnwrapper().Unwrap("s", datagram); err != nil {
			wantErrors++
		} else if frame != nil {
			if _, err := message.Decode(frame); err != nil {
				wantErrors++
			}
		}
		k.HandlePacket(transport.Packet{From: "s", Data: datagram})
		if got := k.decodeErrors.Load(); got != wantErrors {
			t.Errorf("decode errors = %d, want %d", got, wantErrors)
		}
		// Two polls a stall timeout apart walk the gap repair through
		// its NACK send as well.
		k.Poll(clk.Now())
		clk.Advance(time.Second)
		k.Poll(clk.Now())

		for sender, so := range k.order {
			if _, parked := so.buf.Gap(); parked > maxPending {
				t.Errorf("sender %q: %d parked, limit %d", sender, parked, maxPending)
			}
		}
	})
}

// FuzzCoordinatorHandlePacket feeds one arbitrary datagram to a
// coordinator whose archive has every shape a NACK can ask about: a
// prefix the cap evicted, a seq that never arrived, a second sender,
// and more live frames than one request may be answered with — plus a
// third sender heard only past its lost seq 1.  The hole list is a
// parser on a trust boundary, so whatever the bytes the coordinator
// must not panic, must answer a sender-scoped request with exactly the
// frames a brute-force reading of it selects — in sender order, none
// twice, never more than maxRepairFrames — must keep its index and its
// archive in step, and must never archive a frame twice.
//
// The seed corpus (testdata/fuzz/FuzzCoordinatorHandlePacket) is real
// output of Enveloper.WrapMessage: a NACK with no body, a hole-list
// NACK, one whose body stops inside a varint, one asking for a
// four-billion-wide range, a lock request, an event from the third
// sender at seq 2³²−1 (u@0xffffffff), and requests carrying an
// after-seq attribute the coordinator does not read (a NACK after 1.5,
// a catch-up after −1).
func FuzzCoordinatorHandlePacket(f *testing.F) {
	const (
		live       = 300 // s's seqs 1..live, but for never
		never      = 150
		archiveCap = 280
	)
	var archive [][]byte
	var env message.Enveloper
	event := func(sender string, seq uint32) {
		d, err := env.WrapMessage(&message.Message{Kind: message.KindEvent, Sender: sender, Seq: seq})
		if err != nil {
			f.Fatal(err)
		}
		archive = append(archive, d[0])
	}
	for seq := uint32(1); seq <= live; seq++ {
		if seq <= 5 {
			event("t", seq)
		}
		if seq != never {
			event("s", seq)
		}
		if seq >= 2 && seq <= 65 {
			event("u", seq) // u's seq 1 never comes
		}
	}
	key := func(f archivedFrame) string { return fmt.Sprintf("%s/%d", f.stream.sender, f.senderSeq) }
	// Every frame the prefix archives, the ones the cap evicts included.
	prefix := make(map[string]bool)
	ref := NewCoordinatorKernel(nullConn{"reference", clock.NewVirtual(time.Unix(100, 0))}, session.Group{Objective: "fuzz"})
	for _, d := range archive {
		ref.HandlePacket(transport.Packet{From: "p", Data: d})
	}
	for _, f := range ref.log {
		prefix[key(f)] = true
	}
	f.Fuzz(func(t *testing.T, datagram []byte) {
		conn := newCaptureConn("coordinator", time.Unix(100, 0))
		k := NewCoordinatorKernel(conn, session.Group{Objective: "fuzz"})
		k.archiveCap = archiveCap
		for _, d := range archive {
			k.HandlePacket(transport.Packet{From: "p", Data: d})
		}
		held := make(map[string][]uint64) // sender → archived seqs, ascending
		for _, f := range k.log {
			held[f.stream.sender] = append(held[f.stream.sender], uint64(f.senderSeq))
		}
		for _, seqs := range held {
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		}
		prefixEnd := k.first + uint64(len(k.log)) // session seq of the first frame past the prefix

		k.HandlePacket(transport.Packet{From: "r", Data: datagram})

		if k.ArchivedEvents() != indexed(k) || k.ArchivedEvents() > archiveCap {
			t.Errorf("%d frames archived, %d indexed, cap %d", k.ArchivedEvents(), indexed(k), archiveCap)
		}
		seen := make(map[string]bool)
		for i, f := range k.log {
			if seen[key(f)] || (k.first+uint64(i) >= prefixEnd && prefix[key(f)]) {
				t.Errorf("%s archived twice", key(f))
			}
			seen[key(f)] = true
		}
		frames, other := conn.sentSeqs(t)
		m := &message.Message{} // what the datagram says, read independently; nothing if unreadable
		if frame, err := message.NewUnwrapper().Unwrap("r", datagram); err == nil && frame != nil {
			if dm, err := message.Decode(frame); err == nil {
				m = dm
			}
		}
		ctrl := ""
		if m.Kind == message.KindControl {
			v, _ := m.Attr(attrCtrl)
			ctrl = v.Str()
		}
		forSender, _ := m.Attr(attrForSender)
		sender := forSender.Str()
		switch {
		case ctrl == ctrlHistoryReq && sender != "":
			var want []string
			for _, seq := range held[sender] {
				if len(want) < maxRepairFrames && referenceWants(m, seq) {
					want = append(want, fmt.Sprintf("%s/%d", sender, seq))
				}
			}
			if !reflect.DeepEqual(frames, want) || other != 0 {
				t.Errorf("NACK answered with %d frames (+%d other) %v, want %d %v", len(frames), other, frames, len(want), want)
			}
		case ctrl == ctrlHistoryReq:
			if len(frames) > archiveCap || other != 0 {
				t.Errorf("catch-up answered with %d frames (+%d other) from an archive of %d", len(frames), other, archiveCap)
			}
		case ctrl == ctrlLockRequest || ctrl == ctrlLockRelease:
			if len(frames) != 0 || other > 1 {
				t.Errorf("lock message answered with %d frames and %d notices", len(frames), other)
			}
		default:
			if len(conn.sent) != 0 {
				t.Errorf("%d datagrams sent in answer to something that asks for nothing", len(conn.sent))
			}
		}
	})
}

// referenceWants reads a sender-scoped history request the slow way —
// every varint of the body first, then range by range — and reports
// whether it asks for seq.  A body it cannot read, or no body, asks for
// nothing.
func referenceWants(m *message.Message, seq uint64) bool {
	var vals []uint64
	for body := m.Body; len(body) > 0; {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return false
		}
		vals, body = append(vals, v), body[n:]
	}
	if (len(vals)+1)/2 > maxNackHoles+1 {
		return false
	}
	wanted := false
	next := uint64(0) // one past the previous range
	for i := 0; i < len(vals); i += 2 {
		if next > maxSenderSeq || vals[i] > maxSenderSeq-next {
			return false
		}
		from, to := next+vals[i], uint64(maxSenderSeq)
		if i+1 < len(vals) {
			if vals[i+1] > maxSenderSeq-from {
				return false
			}
			to = from + vals[i+1]
		}
		wanted = wanted || (from <= seq && seq <= to)
		next = to + 1
	}
	return wanted
}

// FuzzClientHandlePacket feeds one arbitrary datagram, twice, to a
// whole Client — kernel, reception-report feedback, lock table,
// applications and the RTP receiver — attached alone to a DESNet,
// where transport.Serve runs it inline, then lets a second of repair
// polls pass.  The client has already taken the announce of an image
// share from the same peer, so a data packet has a share to join.
// Whatever the bytes, the client must not panic, the loss a peer
// reports must stay a fraction, and no counter may go down.
//
// The seeds are real frames: a reception report about the client, a
// lock grant, a chat line and the share's first data packet, at level
// 0 and at two levels that are not chunk indexes (0.5 and -1).
func FuzzClientHandlePacket(f *testing.F) {
	var env message.Enveloper
	wrap := func(m *message.Message) []byte {
		d, err := env.WrapMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		return d[0]
	}
	obj, err := media.EncodeImage(wavelet.Medical(32, 32, 1), "scan")
	if err != nil {
		f.Fatal(err)
	}
	meta, packets, err := apps.ShareImage("scan", obj, apps.SharePackets)
	if err != nil {
		f.Fatal(err)
	}
	image := func(kind message.Kind, seq uint32, attrs selector.Attributes, body []byte) *message.Message {
		attrs[message.AttrApp] = selector.S(apps.AppImageViewer)
		attrs[message.AttrObject] = selector.S("scan")
		return &message.Message{Kind: kind, Sender: "peer", Seq: seq, Attrs: attrs, Body: body}
	}
	announce := wrap(image(message.KindEvent, 1, selector.Attributes{}, apps.EncodeImageMeta(meta)))
	f.Add(wrap(&message.Message{Kind: message.KindControl, Sender: "peer", Seq: 1, Attrs: selector.Attributes{
		attrCtrl: selector.S(ctrlRTCPReport), attrSubject: selector.S("fuzz"),
		attrFracLost: selector.N(0.25), attrJitterMs: selector.N(3),
	}}))
	f.Add(wrap(&message.Message{Kind: message.KindControl, Sender: "coord", Seq: 1, Attrs: selector.Attributes{
		attrCtrl: selector.S(ctrlLockGrant), attrObject: selector.S("diagram"),
	}}))
	f.Add(wrap(&message.Message{Kind: message.KindEvent, Sender: "peer", Seq: 2, Attrs: selector.Attributes{
		message.AttrApp: selector.S(apps.AppChat), message.AttrMedia: selector.S("text"),
	}, Body: apps.EncodeSay("hello")}))
	pkt := rtp.NewSender(rtp.SSRCOf("peer"), 96, 0).Next(0, false, packets[0])
	f.Add(wrap(image(message.KindData, 2, selector.Attributes{message.AttrLevel: selector.N(0)}, pkt.Marshal())))
	f.Add(wrap(image(message.KindData, 2, selector.Attributes{message.AttrLevel: selector.N(0.5)}, pkt.Marshal())))
	f.Add(wrap(image(message.KindData, 2, selector.Attributes{message.AttrLevel: selector.N(-1)}, pkt.Marshal())))

	f.Fuzz(func(t *testing.T, datagram []byte) {
		net := newVNet(t, 0)
		c := net.client("fuzz", Config{Repair: &RepairOptions{Coordinator: "coord"}})
		c.HandlePacket(transport.Packet{From: "peer", Data: announce})

		last := c.Stats()
		for _, step := range []func(){
			func() { c.HandlePacket(transport.Packet{From: "peer", Data: datagram}) },
			func() { c.HandlePacket(transport.Packet{From: "peer", Data: datagram}) },
			func() { net.clk.Advance(time.Second) },
		} {
			step()
			if loss := c.WorstPeerLoss(); !(loss >= 0 && loss <= 1) {
				t.Fatalf("worst peer loss %v is not a fraction", loss)
			}
			now := c.Stats()
			was, is := reflect.ValueOf(last), reflect.ValueOf(now)
			for i := 0; i < is.NumField(); i++ {
				if is.Field(i).Uint() < was.Field(i).Uint() {
					t.Fatalf("%s went down: %+v, then %+v", is.Type().Field(i).Name, last, now)
				}
			}
			last = now
		}
	})
}
