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

// relayedFrameAllocs counts what relaying one data frame of a wired
// image share to n image-tier members costs the station, the dispatch
// pool inline and the nets untraced, so nothing counted is the test's.
// The members are bare radio endpoints; each must receive the frame.
func relayedFrameAllocs(t *testing.T, n int) float64 {
	t.Helper()
	r := newWallCell(t, Config{fanOutWorkers: 1, Thresholds: bareThresholds})
	r.wiredNet.SetTrace(nil)
	r.radioNet.SetTrace(nil)
	members := make([]transport.Conn, n)
	for i := range members {
		members[i] = r.join(t, fmt.Sprintf("m%02d", i), 30)
	}
	rp := rtp.Packet{PayloadType: 96, Seq: 41, Timestamp: 7, SSRC: 1, Payload: make([]byte, 1024)}
	var env message.Enveloper
	d, err := env.WrapMessage(&message.Message{
		Kind: message.KindData, Sender: "pub", Seq: 2,
		Attrs: selector.Attributes{message.AttrApp: selector.S(apps.AppImageViewer), message.AttrObject: selector.S("scan"),
			message.AttrLevel: selector.N(3), message.AttrMedia: selector.S("image")},
		Body: rp.Marshal(),
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
	relay() // warm: selector cache, flat profiles, intern table, the station's scratch
	return testing.AllocsPerRun(200, relay)
}

// TestRelayedFrameAllocsFlat pins what a wired image share's data frame
// costs the station as it passes (DESIGN.md §17).  The station keeps the
// frame's RTP scratch, fan-out, candidate list and pipeline from frame
// to frame, so a frame costs the one datagram every member is given,
// however many image-tier members there are.  (A station that
// collected the share copied the whole stream again, re-split it and
// RTP-framed it once per share.)
func TestRelayedFrameAllocsFlat(t *testing.T) {
	const pinned = 1
	two, eight := relayedFrameAllocs(t, 2), relayedFrameAllocs(t, 8)
	t.Logf("%g allocations per relayed frame with 2 members, %g with 8", two, eight)
	if two > pinned {
		t.Errorf("a relayed frame allocates %g times at the station, want <= %d", two, pinned)
	}
	if eight != two {
		t.Errorf("a relayed frame allocates %g times with 2 image-tier members and %g with 8: members cost allocations", two, eight)
	}
}

// discardTx takes the messages it is handed and sends none.
type discardTx struct{}

func (discardTx) Deliver(string, *message.Message) error { return nil }

// memberImageCost measures what forwardTiered allocates per member of
// the image tier for a w×w share, envelope and substrate left out: the
// rendition is built before counting, and the transmit adapter drops
// the messages it is handed.  It returns the bytes and the allocations
// per member and the share's mean packet size.
func memberImageCost(t *testing.T, w int) (perMember, allocs uint64, packetBytes int) {
	t.Helper()
	c := newBareCell(t, 1, 0, 0)
	obj, err := media.EncodeImage(wavelet.Medical(w, w, 4), "scan")
	if err != nil {
		t.Fatal(err)
	}
	rs := &renditions{bs: c.bs, sender: "pub", object: "pin", obj: obj}
	if err := c.bs.forwardTiered(rs, radio.TierImage, discardTx{}, "m"); err != nil {
		t.Fatal(err)
	}
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.bs.forwardTiered(rs, radio.TierImage, discardTx{}, "m")
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs, len(obj.Data) / apps.SharePackets
}

// TestImageTierMemberCostFlat: an image-tier member costs the station
// one message, rewritten for every frame, not a copy of the share — RTP
// framing is done once per rendition — so what a member costs does not
// grow with packet size or count.
func TestImageTierMemberCostFlat(t *testing.T) {
	small, smallAllocs, smallPkt := memberImageCost(t, 64)
	large, largeAllocs, largePkt := memberImageCost(t, 256)
	if smallAllocs > 1 || largeAllocs > 1 {
		t.Errorf("a member costs %d and %d allocations per share, want <= 1 (its message)", smallAllocs, largeAllocs)
	}
	if largePkt < 8*smallPkt {
		t.Fatalf("packets of %d and %d B are too close to tell", smallPkt, largePkt)
	}
	if large > small+256 {
		t.Errorf("a member costs %d B for %d-byte packets and %d B for %d-byte ones: framing is paid per member",
			small, smallPkt, large, largePkt)
	}
}

// TestUplinkMembershipCopiesNoProfile: a member's uplink asks the
// registry whether the sender has joined without copying its profile
// (six allocations per event while the relay cloned the profile and
// its attribute maps only to test the lookup).  The member is
// alone in a cell with no wired client, so what is counted is the
// station's own relay work.
func TestUplinkMembershipCopiesNoProfile(t *testing.T) {
	c := newWallCell(t, Config{fanOutWorkers: 1, Thresholds: bareThresholds})
	attach(t, c.wiredNet, "pub")
	c.join(t, "m00", 30)
	body := []byte("hello")
	if err := c.bs.UplinkEvent("m00", apps.AppChat, "", body); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { c.bs.UplinkEvent("m00", apps.AppChat, "", body) }); n > 9 {
		t.Errorf("a member's uplink event allocates %g times, want <= 9", n)
	}
	if err := c.bs.UplinkEvent("stranger", apps.AppChat, "", body); !errors.Is(err, ErrNotJoined) {
		t.Errorf("uplink event from a non-member: %v, want ErrNotJoined", err)
	}
}

// TestRelayedEventAllocs pins what relaying one chat event from the
// wired session to the cell costs the station, with the dispatch pool
// inline.  The frame is decoded into the wired segment's own message,
// lent to the relay for the call, so what is counted is the fan-out:
// the candidate list, the Fanout and the closure the pool runs, and the
// one datagram every member is given, with the list that holds it.  The
// nets are untraced, so nothing counted is the test's.
func TestRelayedEventAllocs(t *testing.T) {
	r := newWallCell(t, Config{fanOutWorkers: 1, Thresholds: bareThresholds})
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
	const pinned = 5
	n := testing.AllocsPerRun(200, relay)
	t.Logf("%g allocations per relayed event", n)
	if n > pinned {
		t.Errorf("a relayed chat event allocates %g times at the station, want <= %d", n, pinned)
	}
}
