package core

import (
	"strings"
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/wavelet"
)

// TestLargeEventFragmentsAcrossMTU: a media event far larger than the
// configured MTU crosses the substrate transparently via envelope
// fragmentation.
func TestLargeEventFragmentsAcrossMTU(t *testing.T) {
	net := newVNet(t, 111)
	// Tiny MTU forces fragmentation of nearly everything.
	a := net.client("alice", Config{MTU: 256})
	b := net.client("bob", Config{MTU: 256})

	// A chat line bigger than the MTU.
	long := strings.Repeat("the quick brown fox ", 200) // ~4 KB
	if err := a.Say(long, ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != long {
		t.Error("fragmented chat line corrupted")
	}

	// A full image share: every announce/data message re-fragments.
	im := wavelet.Medical(96, 96, 7)
	obj, err := media.EncodeImage(im, "large share")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("big-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	if st, err := b.Viewer().Stats("big-1"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("bob holds big-1 as %+v (%v), want 16 packets accepted", st, err)
	}
	res, err := b.Viewer().Render("big-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("fragmented image share should still be lossless")
	}
	if st := b.Stats(); st.DecodeErrors != 0 {
		t.Errorf("decode errors under fragmentation: %d", st.DecodeErrors)
	}
}
