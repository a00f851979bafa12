package core

import (
	"fmt"
	"testing"
	"time"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
	"adaptiveqos/internal/wavelet"
)

// TestImageShareOverLossyLink: with 20 % loss, the receiver still
// renders a usable image from whatever contiguous prefix survived —
// the progressive stream's whole point.
func TestImageShareOverLossyLink(t *testing.T) {
	net := newVNet(t, 21)
	a, b := net.client("alice", Config{}), net.client("bob", Config{})
	net.SetLink("alice", "bob", transport.Link{Loss: 0.2})

	im := wavelet.Medical(64, 64, 2)
	obj, err := media.EncodeImage(im, "lossy scan")
	if err != nil {
		t.Fatal(err)
	}
	// Share several images: at 20% loss at least one share will lose
	// packets, and every received prefix must still render.
	for i := 0; i < 5; i++ {
		if err := a.ShareImage(fmt.Sprintf("img-%d", i), obj, ""); err != nil {
			t.Fatal(err)
		}
	}
	net.settle()

	rendered := 0
	var lostSomething bool
	for _, object := range b.Viewer().Objects() {
		st, err := b.Viewer().Stats(object)
		if err != nil {
			continue
		}
		if st.PacketsReceived < st.TotalPackets {
			lostSomething = true
		}
		res, err := b.Viewer().Render(object)
		if err != nil {
			t.Fatalf("%s: render: %v", object, err)
		}
		if res.Image.W != 64 || res.Image.H != 64 {
			t.Fatalf("%s: bad render size", object)
		}
		rendered++
	}
	if rendered == 0 {
		t.Fatal("nothing rendered at all")
	}
	if !lostSomething {
		t.Error("no share lost a packet: the prefix path went untested")
	}
}

// TestShareOverDuplicatingLink: a link that loses nothing but delivers
// every frame twice, jittered, costs the receiver nothing.  A second
// delivery of the announce is the same announce, not a new share: what
// was collected by then stays collected, and duplicate packets are
// no-ops, so all 16 packets are there and the render is lossless.
func TestShareOverDuplicatingLink(t *testing.T) {
	im := wavelet.Medical(64, 64, 3)
	obj, err := media.EncodeImage(im, "scan, twice")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		net := newVNet(t, seed)
		transporttest.Watch(t, net)
		a, b := net.client("alice", Config{}), net.client("bob", Config{})
		net.SetLink("alice", "bob", transport.Link{
			Duplicate: 1, Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond,
		})
		if err := a.ShareImage("twice", obj, ""); err != nil {
			t.Fatal(err)
		}
		// Every frame arrives twice: 2 announces, 32 packets.
		net.settle()
		if st := b.Stats(); st.EventsReceived != 2 || st.DataPackets != 32 {
			t.Errorf("seed %d: bob took %d events and %d packets, want both copies of every frame (2 and 32)",
				seed, st.EventsReceived, st.DataPackets)
		}
		if st, err := b.Viewer().Stats("twice"); err != nil || st.PacketsAccepted != 16 || st.PacketsReceived != 16 {
			t.Errorf("seed %d: receiver holds %+v (err %v), want 16/16", seed, st, err)
		} else if res, err := b.Viewer().Render("twice"); err != nil || !res.Lossless || !res.Image.Equal(im) {
			t.Errorf("seed %d: render is not the image that was shared (err %v)", seed, err)
		}
	}
}

// TestChatOverDuplicatingReorderingLink: duplicated frames must not
// duplicate chat lines beyond the duplicates themselves being separate
// sends... chat is idempotent per message only at the transport level,
// so the assertion is that nothing crashes and ordering state stays
// sane under duplication + jitter.
func TestChatOverDuplicatingReorderingLink(t *testing.T) {
	net := newVNet(t, 22)
	a, b := net.client("alice", Config{}), net.client("bob", Config{})
	net.SetLink("alice", "bob", transport.Link{
		Duplicate: 0.5,
		Jitter:    3 * time.Millisecond,
	})

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Say(fmt.Sprintf("line %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	net.settle()
	got := b.Chat().Len()
	if got < n {
		t.Errorf("received %d of %d lines", got, n)
	}
	// Duplicates may add lines (chat is an append log) but never lose
	// any, and the decode-error counter must stay clean.
	if st := b.Stats(); st.DecodeErrors != 0 {
		t.Errorf("decode errors under duplication: %d", st.DecodeErrors)
	}
}

// TestAdaptOnceSurvivesSNMPTimeouts: a flaky agent (dropped requests)
// produces an error from AdaptOnce, and the client keeps its previous
// decision rather than flailing; its tick meets the failure the same
// way and, returning nothing, counts it.
func TestAdaptOnceSurvivesSNMPTimeouts(t *testing.T) {
	host := newFlakyHost(t)
	n := newVNet(t, 23)
	c := n.client("c", Config{Monitor: host.monitor})

	// First sample succeeds and constrains the budget.
	host.dropNext(0)
	host.set(90, 80)
	d1, err := c.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	constrained := d1.EffectiveBudget(16)
	if constrained >= 16 {
		t.Fatalf("budget = %d, want constrained", constrained)
	}

	// Now the agent goes dark as the host recovers: AdaptOnce errors,
	// decision unchanged, and so does the tick.
	host.dropNext(1000)
	host.set(10, 10)
	if _, err := c.AdaptOnce(); err == nil {
		t.Fatal("expected sampling error")
	}
	if got := c.LastDecision().EffectiveBudget(16); got != constrained {
		t.Errorf("decision changed on failed sample: %d -> %d", constrained, got)
	}
	n.clk.Advance(AdaptInterval)
	if got := c.LastDecision().EffectiveBudget(16); got != constrained {
		t.Errorf("decision changed on a failed tick: %d -> %d", constrained, got)
	}
	if got := c.Stats().SampleErrors; got != 2 {
		t.Errorf("SampleErrors = %d after a failed AdaptOnce and a failed tick, want 2", got)
	}
}

// TestImageShareAcrossPartitionHeal: packets lost to a partition are
// gone (no retransmission — real-time collaboration), but traffic
// after the heal flows again.
func TestImageShareAcrossPartitionHeal(t *testing.T) {
	a, b, net := newPair(t)

	net.Partition("alice", "bob", true)
	if err := a.Say("into the void", ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	if b.Chat().Len() != 0 {
		t.Fatal("message crossed a partition")
	}

	net.Partition("alice", "bob", false)
	if err := a.Say("after heal", ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != "after heal" {
		t.Errorf("post-heal line: %+v", b.Chat().Lines())
	}
}
