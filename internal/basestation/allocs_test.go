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
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// collectedRelayBytes measures what deliverCollectedImage allocates per
// 256×256 share in a cell with two members in each of the given tiers.
// The members are bare radio endpoints, joined but with no client
// behind them, and the dispatch pool runs inline: everything counted is
// the base station's own relay work.
func collectedRelayBytes(t *testing.T, tiers ...radio.Tier) uint64 {
	t.Helper()
	r := newWallCell(t, Config{fanOutWorkers: 1, Thresholds: tierThresholds})
	r.radioNet.SetTrace(nil) // the cell's integrity harness copies every frame it sees
	var conns []transport.Conn
	for _, tier := range tiers {
		for i, d := range tierDistances[tier] {
			conns = append(conns, r.join(t, fmt.Sprintf("%s-%d", tier, i), d))
		}
	}
	for _, tier := range tiers {
		for i := range tierDistances[tier] {
			if a, err := r.bs.Assess(fmt.Sprintf("%s-%d", tier, i)); err != nil || a.Tier != tier {
				t.Fatalf("placement: %s-%d assessed %s (%v)", tier, i, a.Tier, err)
			}
		}
	}

	obj, err := media.EncodeImage(wavelet.Blocks(256, 256, 64, 4), "blocks")
	if err != nil {
		t.Fatal(err)
	}
	meta, packets, err := apps.ShareImage("pin", obj, 16)
	if err != nil {
		t.Fatal(err)
	}
	// One P while counting, as in wavelet's TestDecodeSteadyStateAllocs:
	// the coder's pooled scratch sits in a per-P slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 8
	var total uint64
	for run := 0; run <= runs; run++ {
		r.bs.collect.Announce(meta)
		for i, p := range packets {
			if err := r.bs.collect.AddPacket(meta.Object, i, p); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.bs.deliverCollectedImage("pub", meta.Object, "")
		runtime.ReadMemStats(&after)
		if run > 0 { // run 0 warms the pool and the scan cache
			total += after.TotalAlloc - before.TotalAlloc
		}
		sent := 0
		for _, conn := range conns {
			for len(conn.Recv()) > 0 {
				<-conn.Recv()
				sent++
			}
		}
		if want := 17*2 + 2*(len(tiers)-1); sent != want {
			t.Fatalf("run %d: %d frames on the RF leg, want %d", run, sent, want)
		}
	}
	return total / runs
}

// TestCollectedRelayPlanePasses pins the collected-image relay's plane
// passes by what it allocates (DESIGN.md §17).  A cell with only image-
// and text-tier members is served without a raster ever existing: the
// relay stays under a seventh of one w·h·4 plane — the collected stream
// gathered into one buffer, RTP-framed once into another, then an
// envelope per packet for each of two image-tier members, every
// datagram given to the substrate and not copied into it (31.7 KB
// measured, the announce carrying the sketch; 39.7 KB while each
// member's packets were framed for it).  Seating members in the sketch
// tier decodes nothing: what the tier adds is the sketch the announce
// carried, wrapped once per share, and its fan-out (2.3 KB measured;
// 16.7 KB while the station decoded the 32×32 LL band of every share,
// 279 KB while it rebuilt the luma plane and box-averaged it).
func TestCollectedRelayPlanePasses(t *testing.T) {
	const plane = 256 * 256 * 4
	flat := collectedRelayBytes(t, radio.TierImage, radio.TierText)
	if flat > plane/7 {
		t.Errorf("image+text cell: the relay allocates %d B per share, limit %d (a seventh of a plane)", flat, plane/7)
	}
	sketched := collectedRelayBytes(t, radio.TierImage, radio.TierSketch, radio.TierText)
	if cost := sketched - flat; sketched < flat || cost > 8<<10 {
		t.Errorf("two sketch-tier members cost %d B per share (%d → %d), limit %d",
			cost, flat, sketched, 8<<10)
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
