package core

import (
	"fmt"
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestLossFeedsAdaptation: observed RTP data loss constrains the next
// adaptation decision even when host metrics look healthy.
func TestLossFeedsAdaptation(t *testing.T) {
	net := newVNet(t, 31)
	a, b := net.client("alice", Config{}), net.client("bob", Config{})
	// Heavy loss toward bob.
	net.SetLink("alice", "bob", transport.Link{Loss: 0.5})

	obj, err := media.EncodeImage(wavelet.Circles(64, 64), "x")
	if err != nil {
		t.Fatal(err)
	}
	// Several shares so the reorder window declares losses.
	for i := 0; i < 6; i++ {
		if err := a.ShareImage(fmt.Sprintf("o-%d", i), obj, ""); err != nil {
			t.Fatal(err)
		}
	}
	net.settle()

	loss, _, ok := receptionQuality(b.receptionStats())
	if !ok {
		t.Fatal("no data packets observed at all")
	}
	if loss <= 0 {
		t.Fatal("no losses registered")
	}

	d, err := b.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.EffectiveBudget(16); got >= 16 {
		t.Errorf("budget %d not constrained despite %.0f%% observed loss", got, loss*100)
	}
	found := false
	for _, r := range d.Fired {
		if r == "loss-budget" {
			found = true
		}
	}
	if !found {
		t.Errorf("loss-budget rule did not fire: %v", d.Fired)
	}
}

// TestNoLossNoConstraint: a clean link leaves the budget unconstrained
// by the loss rule.
func TestNoLossNoConstraint(t *testing.T) {
	a, b, net := newPair(t)
	obj, err := media.EncodeImage(wavelet.Circles(32, 32), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("clean", obj, ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	if st, err := b.Viewer().Stats("clean"); err != nil || st.PacketsReceived != 16 {
		t.Fatalf("bob holds the clean share as %+v (%v), want 16 packets", st, err)
	}
	d, err := b.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.EffectiveBudget(16); got != 16 {
		t.Errorf("budget on clean link = %d, want 16", got)
	}
}
