//go:build !race

package basestation

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// relayedFrameAllocs counts what relaying one data frame of an image
// share, an RTP payload of the given size enveloped at the given MTU (0
// for the default), to n image-tier members costs the station, the
// nets untraced, so nothing counted is the test's.  The frame is a wired share's, or with uplink one that a
// member "up" sends over the radio, which the station also multicasts
// to the session, where a bare wired peer takes it.  The members are
// bare radio endpoints; each must receive the frame.
func relayedFrameAllocs(t *testing.T, n, payload, mtu int, uplink bool) float64 {
	t.Helper()
	r := newWallCell(t, Config{Thresholds: bareThresholds})
	r.wiredNet.SetTrace(nil)
	r.radioNet.SetTrace(nil)
	members := make([]transport.Conn, n)
	for i := range members {
		members[i] = r.join(t, fmt.Sprintf("m%02d", i), 30)
	}
	sender, handle := "pub", r.bs.handleWired
	if uplink {
		sender, handle = "up", r.bs.handleWireless
		r.join(t, sender, 30)
		members = append(members, attach(t, r.wiredNet, "peer"))
	}
	rp := rtp.Packet{PayloadType: 96, Seq: 41, Timestamp: 7, SSRC: 1, Payload: make([]byte, payload)}
	env := message.Enveloper{MTU: mtu}
	var m message.Message
	m.Kind, m.Sender, m.Seq, m.Body = message.KindData, sender, 2, rp.Marshal()
	m.SetAttrs([]message.Attr{
		{Name: message.AttrApp, Value: selector.S(apps.AppImageViewer)},
		{Name: message.AttrLevel, Value: selector.N(3)},
		{Name: message.AttrMedia, Value: selector.S("image")},
		{Name: message.AttrObject, Value: selector.S("scan")},
	})
	// The same datagrams every time: each completes the frame afresh.
	datagrams, err := env.WrapMessage(&m)
	if err != nil {
		t.Fatal(err)
	}
	if (mtu > 0) != (len(datagrams) > 1) {
		t.Fatalf("%d B payload at MTU %d: %d datagrams", payload, mtu, len(datagrams))
	}
	relay := func() {
		for _, d := range datagrams {
			handle(transport.Packet{From: sender, Data: d})
		}
		for _, conn := range members {
			select {
			case <-conn.Recv():
			default:
				t.Fatalf("%s: nothing relayed", conn.ID())
			}
		}
	}
	relay() // warm: selector cache, flat profiles, intern table, the station's scratch
	return testing.AllocsPerRun(200, relay)
}

// TestRelayedFrameAllocsFlat pins what a wired image share's data frame
// costs the station as it passes (DESIGN.md §17).  The station keeps the
// frame's RTP scratch, fan-out, candidate list and pipeline from frame
// to frame, and reassembles a fragmented frame — image-tiered's 1–2 KB
// packets at its 1 400 B wired MTU — into the wired segment's scratch,
// so a frame, whole or fragmented, costs the one datagram every member
// is given, however many image-tier members there are.  (A station that
// collected the share copied the whole stream again, re-split it and
// RTP-framed it once per share; one that reassembled into a fresh
// buffer paid a second allocation for a fragmented frame.)
func TestRelayedFrameAllocsFlat(t *testing.T) {
	pinFrameAllocs(t, false, 1)
}

// TestUplinkedFrameAllocsFlat pins the same for a data frame of a share
// a member uplinks over the radio: the radio segment keeps its own
// reassembly scratch, RTP scratch, fan-out and candidate list, so the
// frame costs the datagram the session is multicast and the one every
// other member is given.  (Before a member's share took the wired
// share's relay, the station relayed no such frame at all, and still
// allocated once per datagram for the peer key it read it under, and
// once more for the fresh buffer a fragmented frame was reassembled
// into: 1 per whole frame, 3 per fragmented one.)
func TestUplinkedFrameAllocsFlat(t *testing.T) {
	pinFrameAllocs(t, true, 2)
}

func pinFrameAllocs(t *testing.T, uplink bool, pinned float64) {
	t.Helper()
	for _, tc := range []struct {
		name         string
		payload, mtu int
	}{
		{"whole", 1024, 0},
		{"fragmented", 1800, 1400},
	} {
		two, eight := relayedFrameAllocs(t, 2, tc.payload, tc.mtu, uplink), relayedFrameAllocs(t, 8, tc.payload, tc.mtu, uplink)
		t.Logf("%s: %g allocations per relayed frame with 2 members, %g with 8", tc.name, two, eight)
		if two > pinned {
			t.Errorf("%s: a relayed frame allocates %g times at the station, want <= %g", tc.name, two, pinned)
		}
		if eight != two {
			t.Errorf("%s: a relayed frame allocates %g times with 2 image-tier members and %g with 8: members cost allocations", tc.name, two, eight)
		}
	}
}

// TestRelayedShareAllocs pins what a whole wired image share costs the
// station as it passes (DESIGN.md §17): image-tiered's share, a 256×256
// image in 16 packets enveloped at a 1 400 B wired MTU, to a cell with
// two members in each tier and the nets untraced.  The station sends 21 datagram sets — the announce and 16
// frames, each enveloped once for the image tier, and one media event
// per lower-tier member — and beyond them allocates only the share's
// two transformed objects (the sketch's bytes, the text's) and the
// announce's decoded strings.  Everything else is the wired segment's,
// kept from share to share: the reassembly scratch, the announced
// object, the rendition set and its buffers, the fan-out, the share
// relay's pipeline and candidates, the message each member's rendition
// is stamped in.  (A station that built all of that per share, and
// reassembled each fragmented frame into a fresh buffer, allocated 79
// times: its 21 datagram sets and 58 allocations besides.)
func TestRelayedShareAllocs(t *testing.T) {
	const (
		datagramSets = 1 + 16 + 4
		pinned       = datagramSets + 6
	)
	r := newWallCell(t, Config{Thresholds: tierThresholds})
	r.wiredNet.SetTrace(nil)
	r.radioNet.SetTrace(nil)
	var members []transport.Conn
	for _, tier := range []radio.Tier{radio.TierImage, radio.TierSketch, radio.TierText} {
		for i, d := range tierDistances[tier] {
			id := fmt.Sprintf("%s-%d", tier, i)
			members = append(members, r.join(t, id, d))
			if a, err := r.bs.Assess(id); err != nil || a.Tier != tier {
				t.Fatalf("placement: %s assessed %s (%v)", id, a.Tier, err)
			}
		}
	}
	share := wiredShare(t, 256, 1400)
	if len(share) <= 17 {
		t.Fatalf("the share is %d datagrams: nothing was fragmented", len(share))
	}
	received := 0
	relay := func() {
		for _, d := range share {
			r.bs.handleWired(transport.Packet{From: "pub", Data: d})
		}
		for _, conn := range members {
			for len(conn.Recv()) > 0 {
				<-conn.Recv()
				received++
			}
		}
	}
	relay() // warm: selector cache, flat profiles, intern table, the wired segment's state
	if want := 2*17 + 4; received != want {
		t.Fatalf("the members were sent %d datagrams, want %d", received, want)
	}
	n := testing.AllocsPerRun(50, relay)
	t.Logf("%g allocations per relayed share, %d of them datagram sets", n, datagramSets)
	if n > pinned {
		t.Errorf("a relayed share allocates %g times at the station, want <= %d (%d datagram sets)", n, pinned, datagramSets)
	}
}

// wiredShare returns the datagrams of a wired share "scan" from "pub":
// a w×w image in 16 packets, announce first, enveloped at the given
// MTU (0 for the default).
func wiredShare(t *testing.T, w, mtu int) [][]byte {
	t.Helper()
	obj, err := media.EncodeImage(wavelet.Medical(w, w, 1), "scan")
	if err != nil {
		t.Fatal(err)
	}
	meta, packets, err := apps.ShareImage("scan", obj, 16)
	if err != nil || len(packets) != 16 {
		t.Fatalf("%d packets, %v", len(packets), err)
	}
	env := message.Enveloper{MTU: mtu}
	var share [][]byte
	send := func(m *message.Message, attrs ...message.Attr) {
		m.Sender, m.Seq = "pub", uint32(len(share)+1)
		m.SetAttrs(attrs)
		d, err := env.WrapMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		share = append(share, d...)
	}
	app, object := message.Attr{Name: message.AttrApp, Value: selector.S(apps.AppImageViewer)}, message.Attr{Name: message.AttrObject, Value: selector.S("scan")}
	send(&message.Message{Kind: message.KindEvent, Body: apps.EncodeImageMeta(meta)}, app, object)
	for i, p := range packets {
		rp := rtp.Packet{PayloadType: 96, Marker: i == len(packets)-1, Seq: uint16(i), SSRC: 1, Payload: p}
		send(&message.Message{Kind: message.KindData, Body: rp.Marshal()}, app, message.Attr{Name: message.AttrLevel, Value: selector.N(float64(i))}, object)
	}
	return share
}

// memberImageCost measures what relaying a whole w×w wired share costs
// the station per image-tier member, the nets untraced: the bytes and allocations of a share relayed to six
// members less those of one relayed to two, over the four members
// between, and the share's mean packet size.
func memberImageCost(t *testing.T, w int) (perMember, allocs uint64, packetBytes int) {
	t.Helper()
	share := wiredShare(t, w, 0)
	cost := func(n int) (bytes, mallocs uint64) {
		r := newWallCell(t, Config{Thresholds: bareThresholds})
		r.wiredNet.SetTrace(nil)
		r.radioNet.SetTrace(nil)
		members := make([]transport.Conn, n)
		for i := range members {
			members[i] = r.join(t, fmt.Sprintf("m%02d", i), 30)
		}
		relay := func() {
			for _, d := range share {
				r.bs.handleWired(transport.Packet{From: "pub", Data: d})
			}
			for _, conn := range members {
				for len(conn.Recv()) > 0 {
					<-conn.Recv()
				}
			}
		}
		relay() // warm
		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			relay()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	twoBytes, twoAllocs := cost(2)
	sixBytes, sixAllocs := cost(6)
	sub := func(a, b uint64) uint64 { return max(a, b) - b }
	total := 0
	for _, d := range share[1:] {
		total += len(d)
	}
	return sub(sixBytes, twoBytes) / 4, sub(sixAllocs, twoAllocs) / 4, total / (len(share) - 1)
}

// TestImageTierMemberCostFlat: an image-tier member costs the station
// no copy of the share — the announce and every frame are enveloped
// once, and every member is given that one datagram set — so what a
// member costs neither grows with packet size nor amounts to an
// allocation.  (While a member was sent the share in a message of its
// own, rewritten per frame, it cost one allocation per share; while
// each frame minted its own, 17.)
func TestImageTierMemberCostFlat(t *testing.T) {
	small, smallAllocs, smallPkt := memberImageCost(t, 64)
	large, largeAllocs, largePkt := memberImageCost(t, 256)
	t.Logf("a member costs %d B and %d allocations at %d B packets, %d B and %d at %d B", small, smallAllocs, smallPkt, large, largeAllocs, largePkt)
	if smallAllocs > 0 || largeAllocs > 0 {
		t.Errorf("a member costs %d and %d allocations per share, want none", smallAllocs, largeAllocs)
	}
	if largePkt < 8*smallPkt {
		t.Fatalf("packets of %d and %d B are too close to tell", smallPkt, largePkt)
	}
	if large > small+256 {
		t.Errorf("a member costs %d B for %d-byte packets and %d B for %d-byte ones: the share is copied per member",
			small, smallPkt, large, largePkt)
	}
}

// TestUplinkMembershipCopiesNoProfile: a member's uplink asks the
// registry whether the sender has joined without copying its profile
// (six allocations per event while the relay cloned the profile and
// its attribute maps only to test the lookup), and the line is stamped
// into the radio segment's kept message and fanned out on its kept
// fan-out and candidate list (eight while UplinkEvent minted a message
// and built a member list, a Fanout and a closure per line).  The
// member is alone in a cell with a bare wired peer, so what is counted
// is the station's own relay work.
func TestUplinkMembershipCopiesNoProfile(t *testing.T) {
	c := newWallCell(t, Config{Thresholds: bareThresholds})
	attach(t, c.wiredNet, "pub")
	c.join(t, "m00", 30)
	body := []byte("hello")
	if err := c.bs.UplinkEvent("m00", apps.AppChat, "", body); err != nil {
		t.Fatal(err)
	}
	const pinned = 3
	n := testing.AllocsPerRun(200, func() { c.bs.UplinkEvent("m00", apps.AppChat, "", body) })
	t.Logf("%g allocations per uplink event", n)
	if n > pinned {
		t.Errorf("a member's uplink event allocates %g times, want <= %d", n, pinned)
	}
	if err := c.bs.UplinkEvent("stranger", apps.AppChat, "", body); !errors.Is(err, ErrNotJoined) {
		t.Errorf("uplink event from a non-member: %v, want ErrNotJoined", err)
	}
}

// TestRelayedEventAllocs pins what relaying one chat event from the
// wired session to the cell costs the station.  The frame is decoded
// into the wired segment's own message, lent to the relay for the
// call, and fanned out on the segment's kept fan-out and candidate
// list, so what is counted is the
// one datagram every member is given (five while the relay built a
// candidate list, a Fanout and a closure per event).  The nets are
// untraced, so nothing counted is the test's.
func TestRelayedEventAllocs(t *testing.T) {
	r := newWallCell(t, Config{Thresholds: bareThresholds})
	r.wiredNet.SetTrace(nil)
	r.radioNet.SetTrace(nil)
	members := make([]transport.Conn, 4)
	for i := range members {
		members[i] = r.join(t, fmt.Sprintf("m%02d", i), 30)
	}
	var env message.Enveloper
	d, err := env.WrapMessage(&message.Message{
		Kind: message.KindEvent, Sender: "pub", Seq: 1,
		Attrs: selector.Attributes{message.AttrApp: selector.S(apps.AppChat), message.AttrMedia: selector.S("text")},
		Body:  apps.EncodeSay("to the cell"),
	})
	if err != nil {
		t.Fatal(err)
	}
	pkt := transport.Packet{From: "pub", Data: d[0]}
	relay := func() {
		r.bs.handleWired(pkt)
		for i, conn := range members {
			select {
			case <-conn.Recv():
			default:
				t.Fatalf("member %d: nothing relayed", i)
			}
		}
	}
	relay() // warm: selector cache, flat profiles, intern table, encode buffers
	const pinned = 1
	n := testing.AllocsPerRun(200, relay)
	t.Logf("%g allocations per relayed event", n)
	if n > pinned {
		t.Errorf("a relayed chat event allocates %g times at the station, want <= %d", n, pinned)
	}
}
