package basestation

import (
	"fmt"
	"testing"

	"adaptiveqos/internal/core"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/transport"
)

// TestRelayedShareReceptionStats: the station frames every share it
// relays to the members under its own SSRC with seqs 0..15; a receiver
// that took the second share of a sender as 16 late repeats of the
// first would freeze that sender's loss figure after share one — the
// figure the member's rtp_loss_fraction gauge and adaptation read.  Each
// share must count as a stream of its own on the downlink; on the
// uplink the session is sent the member's frames as they were sent, one
// stream whose seqs run on from share to share.
func TestRelayedShareReceptionStats(t *testing.T) {
	obj := testImageObject(t)
	report := func(c *core.Client, sender string) rtp.Stats {
		st, _ := c.ReceptionReport(sender)
		return st
	}

	t.Run("downlink", func(t *testing.T) {
		r := newRig(t, Config{})
		w1 := r.joinWireless(t, "w1", 30, 1)
		if a, _ := r.bs.Assess("w1"); a.Tier != radio.TierImage {
			t.Fatalf("lone member tier = %s, want image", a.Tier)
		}
		for i := 1; i <= 3; i++ {
			if err := r.wired.ShareImage(fmt.Sprintf("img-%d", i), obj, ""); err != nil {
				t.Fatal(err)
			}
		}
		r.settle()
		if st := report(w1, "wired-1"); st.Received != 48 || st.Unique != 48 || st.ExpectedTotal != 48 || st.Late != 0 || st.Duplicates != 0 {
			t.Errorf("three relayed shares: %+v, want received 48 unique 48 expected 48 late 0 dups 0", st)
		}
	})

	t.Run("uplink", func(t *testing.T) {
		r := newRig(t, Config{})
		w1 := r.joinWireless(t, "w1", 30, 1)
		for i := 1; i <= 2; i++ {
			if err := w1.ShareImage(fmt.Sprintf("up-%d", i), obj, ""); err != nil {
				t.Fatal(err)
			}
		}
		r.settle()
		if st := report(r.wired, "w1"); st.Received != 32 || st.ExpectedTotal != 32 || st.Unique != 32 {
			t.Errorf("two uplinked shares: %+v, want received 32 expected 32 unique 32", st)
		}
	})

	t.Run("lossy", func(t *testing.T) {
		r := newRig(t, Config{})
		w1 := r.joinWireless(t, "w1", 30, 1)
		if err := r.wired.ShareImage("img-1", obj, ""); err != nil {
			t.Fatal(err)
		}
		r.settle()
		if got := report(w1, "wired-1").Received; got != 16 {
			t.Fatalf("share 1: %d packets received, want 16", got)
		}
		lossOf := func() (frac float64) {
			w1.SampleQoS(func(name string, v float64) {
				if name == `rtp_loss_fraction{client="w1",sender="wired-1"}` {
					frac = v
				}
			})
			return frac
		}
		if f := lossOf(); f != 0 {
			t.Fatalf("loss after a lossless share = %g", f)
		}
		r.radioNet.SetLink("bs", "w1", transport.Link{Loss: 0.5})
		for i := 2; i <= 3; i++ {
			if err := r.wired.ShareImage(fmt.Sprintf("img-%d", i), obj, ""); err != nil {
				t.Fatal(err)
			}
		}
		r.settle()
		if f := lossOf(); f <= 0 {
			t.Errorf("loss on shares 2-3 is not in rtp_loss_fraction: %g", f)
		}
	})
}

// TestLosslessMemberReportsNoLoss: a full-tier wireless member hears
// every share the station relays, each under an SSRC of its own, and
// on its tick reports no loss about the sender; the sender, told of no
// loss by anyone, cuts none of its later shares short.
func TestLosslessMemberReportsNoLoss(t *testing.T) {
	obj := testImageObject(t)
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 30, 1)
	if a, _ := r.bs.Assess("w1"); a.Tier != radio.TierImage {
		t.Fatalf("lone member tier = %s, want image", a.Tier)
	}
	// A listener tapping the member's transmissions on the radio segment
	// reads its reports.
	var fracs []float64
	un := message.NewUnwrapper()
	if _, err := r.radioNet.AttachHandler("listener", func(p transport.Packet) {
		frame, err := un.Unwrap(p.From, p.Data)
		if err != nil || frame == nil {
			return
		}
		m, err := message.Decode(frame)
		if err != nil || m.Sender != "w1" {
			return
		}
		if ctrl, _ := m.Attr("ctrl"); ctrl.Str() == "rtcp-rr" {
			frac, _ := m.Attr("fraction-lost")
			fracs = append(fracs, frac.Num())
		}
	}); err != nil {
		t.Fatal(err)
	}
	r.radioNet.SetLink("w1", "listener", transport.Link{})

	for round := 1; round <= 3; round++ {
		for i := 1; i <= 2; i++ {
			if err := r.wired.ShareImage(fmt.Sprintf("img-%d-%d", round, i), obj, ""); err != nil {
				t.Fatal(err)
			}
		}
		r.clk.Advance(core.AdaptInterval)
	}
	if got := w1.Stats().DataPackets; got != 6*16 {
		t.Fatalf("w1 took %d data packets, want all %d", got, 6*16)
	}
	if len(fracs) != 3 {
		t.Fatalf("w1 sent %d reports over three intervals of shares, want 3", len(fracs))
	}
	for i, f := range fracs {
		if f != 0 {
			t.Errorf("report %d: fraction lost %g on a lossless downlink", i, f)
		}
	}
	if st := r.wired.Stats(); st.Truncated != 0 || r.wired.WorstPeerLoss() != 0 {
		t.Errorf("sender truncated %d shares (worst peer loss %g), want none", st.Truncated, r.wired.WorstPeerLoss())
	}
}
