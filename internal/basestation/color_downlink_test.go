package basestation

import (
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/wavelet"
)

// TestColorPreservedOnFullTierDownlink: a color image shared on the
// wired session reaches a full-image-tier wireless client in color;
// a degraded client gets the monochrome/text chain instead.
func TestColorPreservedOnFullTierDownlink(t *testing.T) {
	r := newRig(t, Config{Thresholds: tierThresholds})
	wNear := r.joinWireless(t, "near", 20, 1)
	wFar := r.joinWireless(t, "far", 40, 1)

	near, _ := r.bs.Assess("near")
	far, _ := r.bs.Assess("far")
	if near.Tier != radio.TierImage || far.Tier >= radio.TierImage || far.Tier == radio.TierNone {
		t.Fatalf("tiers: near=%s far=%s, want image and a degraded one", near.Tier, far.Tier)
	}

	im := wavelet.ColorScene(48, 48, 21)
	obj, err := media.EncodeColorImage(im, "color map")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wired.ShareImage("cmap-1", obj, ""); err != nil {
		t.Fatal(err)
	}

	r.settle()

	// Near client: full color, either via the packets path (viewer) or
	// a direct media event.
	colour := false
	for _, d := range wNear.Inbox().Items() {
		colour = colour || media.IsColor(d.Object)
	}
	if st, err := wNear.Viewer().Stats("cmap-1"); !colour && (err != nil || st.PacketsAccepted != st.TotalPackets) {
		t.Fatalf("near client holds no colour image: %+v (%v)", st, err)
	}
	if st, err := wNear.Viewer().Stats("cmap-1"); err == nil && st.PacketsAccepted == st.TotalPackets {
		cres, err := wNear.Viewer().RenderColor("cmap-1")
		if err != nil {
			t.Fatal(err)
		}
		if !cres.Lossless || !cres.Image.Equal(im) {
			t.Error("near client's color rendition should be exact")
		}
	}

	// Far client: degraded content only, never the color stream.
	if wFar.Inbox().Len() == 0 {
		t.Error("far client received nothing")
	}
	for _, d := range wFar.Inbox().Items() {
		if media.IsColor(d.Object) {
			t.Errorf("far client received color at tier %s", far.Tier)
		}
	}
}
