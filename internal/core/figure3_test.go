package core

import (
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/wavelet"
)

// TestFigure3OverTheWire runs the paper's Figure 3 scenario with real
// content on the real substrate: a color image stream is addressed to
// profiles that either want color or can transform it.  The color
// client renders it in color; the monochrome client with a color→gray
// transformation capability accepts it and renders the grayscale
// rendition; the client with neither never sees it.
func TestFigure3OverTheWire(t *testing.T) {
	net := newVNet(t, 141)
	sender := net.client("sender", Config{})
	colorClient := net.client("color-client", Config{})
	bwTransform := net.client("bw-transform-client", Config{})
	bwOnly := net.client("bw-only-client", Config{})

	// Profiles, as in Figure 3.
	colorClient.Profile().SetInterest("accepts-color", selector.B(true))
	bwTransform.Profile().SetInterest("accepts-color", selector.B(false))
	bwTransform.Profile().Update(func(p *profile.Profile) {
		p.Capabilities["transform.color.gray"] = selector.B(true)
	})
	bwOnly.Profile().SetInterest("accepts-color", selector.B(false))

	// The incoming stream's selector: receivers must accept color or be
	// able to transform it away.
	sel := `accepts-color == true or cap.transform.color.gray == true`
	im := wavelet.ColorScene(48, 48, 7)
	obj, err := media.EncodeColorImage(im, "color sequence frame")
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.ShareImage("fig3", obj, sel); err != nil {
		t.Fatal(err)
	}

	net.settle()

	// Client 1: accepts directly and renders in color.
	if st, err := colorClient.Viewer().Stats("fig3"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("color client holds %+v (%v), want 16 packets accepted", st, err)
	}
	cres, err := colorClient.Viewer().RenderColor("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Lossless || !cres.Image.Equal(im) {
		t.Error("color client should render the original exactly")
	}

	// Client 3: accepts with a transformation (grayscale rendition).
	if st, err := bwTransform.Viewer().Stats("fig3"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("transform client holds %+v (%v), want 16 packets accepted", st, err)
	}
	gres, err := bwTransform.Viewer().Render("fig3")
	if err != nil {
		t.Fatal(err)
	}
	want := im.Luma()
	want.Clamp8()
	if !gres.Image.Equal(want) {
		t.Error("transform client should see the exact grayscale rendition")
	}

	// Client 2: rejects — never receives anything.
	if _, err := bwOnly.Viewer().Stats("fig3"); err == nil {
		t.Error("B/W-only client received the color stream")
	}
	if st := bwOnly.Stats(); st.EventsFiltered == 0 {
		t.Error("B/W-only client filtered nothing")
	}
}
