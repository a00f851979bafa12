package basestation

import (
	"bytes"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// wraps counts Enveloper.WrapMessage calls in the process: each takes
// one pooled encode buffer, reused or fresh.
func wraps() uint64 {
	return metrics.C(metrics.CtrEncodeBufReuse).Load() + metrics.C(metrics.CtrEncodeBufAlloc).Load()
}

func countHops(hops []obs.Hop, node string, stage obs.Stage) int {
	n := 0
	for _, h := range hops {
		if h.Node == node && h.Stage == stage {
			n++
		}
	}
	return n
}

// TestOneWrapPerRelayedEvent: a relayed light event is the same bytes
// for every member, so the base station envelopes it once per event —
// not once per member — and not at all when nobody is admitted; every
// admitted member still gets its unicast and DownlinkUnicasts counts
// each.
func TestOneWrapPerRelayedEvent(t *testing.T) {
	const members, blue = 12, 5 // the first five are team blue
	cell := newBareCell(t, 0, members)
	bs, pub, conns := cell.bs, cell.pub, cell.members
	for _, conn := range conns[:blue] {
		bs.reg.Update(conn.ID(), func(p *profile.Profile) { p.Interests.SetString("team", "blue") })
	}
	// recv takes the one datagram a member is owed.
	recv := func(i int) []byte { return take(t, "unicast", conns[i]) }
	idle := func(what string) {
		t.Helper()
		for i, c := range conns {
			select {
			case pkt := <-c.Recv():
				t.Errorf("%s: member %d got an unexpected %d-byte unicast", what, i, len(pkt.Data))
			default:
			}
		}
	}
	var env message.Enveloper
	publish := func(seq uint32, sel string) {
		t.Helper()
		d, err := env.WrapMessage(&message.Message{
			Kind: message.KindEvent, Sender: "pub", Seq: seq, Selector: sel,
			Attrs: selector.Attributes{message.AttrApp: selector.S(apps.AppChat)},
			Body:  apps.EncodeSay("to the team"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Multicast(d[0]); err != nil {
			t.Fatal(err)
		}
	}

	// Downlink: nobody admitted, then five of twelve.
	base := wraps()
	publish(1, `team == "red"`)
	publish(2, `team == "blue"`)
	cell.settle()
	first := recv(0)
	for i := 1; i < blue; i++ {
		if d := recv(i); !bytes.Equal(d, first) {
			t.Errorf("member %d got different bytes from member 0", i)
		}
	}
	// Two of the wraps are the publisher's own, above.
	if got := wraps() - base - 2; got != 1 {
		t.Errorf("one downlink to nobody and one to %d members took %d wraps at the base station, want 1", blue, got)
	}
	if got := bs.Stats().DownlinkUnicasts; got != blue {
		t.Errorf("DownlinkUnicasts = %d, want %d", got, blue)
	}
	idle("after the downlinks")

	// Uplink: one wrap for the wired multicast, one for the
	// fan-out to the eleven other members.
	base = wraps()
	if err := bs.UplinkEvent("m00", apps.AppChat, "", apps.EncodeSay("from the field")); err != nil {
		t.Fatal(err)
	}
	if got := wraps() - base; got != 2 {
		t.Errorf("uplink to %d members took %d wraps, want 2 (multicast + one fan-out)", members-1, got)
	}
	cell.settle()
	first = recv(1)
	for i := 2; i < members; i++ {
		if d := recv(i); !bytes.Equal(d, first) {
			t.Errorf("member %d got different bytes from member 1", i)
		}
	}
	if got := bs.Stats().DownlinkUnicasts; got != blue+members-1 {
		t.Errorf("DownlinkUnicasts = %d, want %d", got, blue+members-1)
	}
	idle("after the uplink")

	// Flight recorder on: still one set of bytes, now with the
	// trace extension, which holds the hops recorded up to the
	// one wrap — the relay's match and its first transmit.
	obs.SetTraceEnabled(true)
	obs.ResetFlight()
	t.Cleanup(func() { obs.SetTraceEnabled(false); obs.ResetFlight() })
	publish(3, `team == "blue"`)
	cell.settle()
	first = recv(0)
	for i := 1; i < blue; i++ {
		if d := recv(i); !bytes.Equal(d, first) {
			t.Errorf("traced: member %d got different bytes from member 0", i)
		}
	}
	id := obs.MsgID("pub", 3)
	if n := countHops(obs.Hops(id), "bs", obs.StageTransmit); n != blue {
		t.Errorf("the recorder holds %d transmit hops at the base station, want one per member (%d)", n, blue)
	}
	obs.ResetFlight() // read the wire alone
	if _, err := message.NewUnwrapper().Unwrap("bs", first); err != nil {
		t.Fatal(err)
	}
	onWire := obs.Hops(id)
	if countHops(onWire, "bs", obs.StageMatch) == 0 || countHops(onWire, "bs", obs.StageTransmit) == 0 {
		t.Errorf("trace extension carries %v, want the relay's match and first transmit hops", onWire)
	}
}

// TestUndecodableFramesCounted: what either receive loop cannot read
// shows in the process-wide decode-error family instead of vanishing.
func TestUndecodableFramesCounted(t *testing.T) {
	r := newRig(t, Config{})
	wiredRaw, rfRaw := attach(t, r.wiredNet, "raw"), seat(t, r.radioNet, "raw")
	ctr := metrics.C(metrics.CtrDecodeErrors)
	base := ctr.Load()
	// An unknown envelope tag on the wired side (the rig's wired client
	// hears it too and counts it as well), a whole-frame envelope around
	// no frame on the radio side.
	if err := wiredRaw.Multicast([]byte("not a message")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if got := ctr.Load() - base; got != 2 {
		t.Errorf("the wired loop and the wired client counted %d decode errors, want 2", got)
	}
	if err := rfRaw.Unicast("bs", message.WrapWhole([]byte("enveloped, still not a message"))); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if got := ctr.Load() - base; got != 3 {
		t.Errorf("with the radio loop's, %d decode errors counted, want 3", got)
	}
}
