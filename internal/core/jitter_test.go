package core

import (
	"testing"
	"time"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestJitterEntersContractEvaluation: a QoS contract bounding jitter
// is evaluated against the RTP-observed jitter during adaptation.
func TestJitterEntersContractEvaluation(t *testing.T) {
	contract := profile.MustContract("strict",
		profile.Constraint{Param: "jitter", Min: 0, Max: 1000, Hard: true})

	net := newVNet(t, 131)
	a := net.client("alice", Config{})
	b := net.client("bob", Config{Contract: contract})
	// Jittery link so arrival spacing varies.
	net.SetLink("alice", "bob", transport.Link{Jitter: 15 * time.Millisecond})

	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 17), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("jittery", obj, ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	if got := b.Stats().DataPackets; got != 16 {
		t.Fatalf("bob took %d data packets, want 16", got)
	}

	d, err := b.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	// The contract saw a jitter measurement (whatever its value: the
	// parameter must not be "missing").
	for _, missing := range d.Contract.Missing {
		if missing == "jitter" {
			t.Fatalf("jitter not observed: %+v", d.Contract)
		}
	}
	if _, _, ok := receptionQuality(b.receptionStats()); !ok {
		t.Fatal("no jitter observation despite received data")
	}

	// With no data streams at all the parameter is missing and a hard
	// jitter contract is unsatisfied (fail-closed).
	d, err = net.client("carol", Config{Contract: contract}).AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if d.Contract.Satisfied {
		t.Error("contract satisfied without any jitter observation")
	}
}
