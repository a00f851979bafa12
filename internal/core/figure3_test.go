package core

import (
	"testing"
	"time"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestFigure3OverTheWire runs the paper's Figure 3 scenario with real
// content on the real substrate: a color image stream is addressed to
// profiles that either want color or can transform it.  The color
// client renders it in color; the monochrome client with a color→gray
// transformation capability accepts it and renders the grayscale
// rendition; the client with neither never sees it.
func TestFigure3OverTheWire(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 141})
	defer net.Close()

	attach := func(id string) *Client {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, Config{})
		t.Cleanup(func() { c.Close() })
		return c
	}
	sender := attach("sender")
	colorClient := attach("color-client")
	bwTransform := attach("bw-transform-client")
	bwOnly := attach("bw-only-client")

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

	// Client 1: accepts directly and renders in color.
	waitFor(t, "color client delivery", func() bool {
		st, err := colorClient.Viewer().Stats("fig3")
		return err == nil && st.PacketsAccepted == 16
	})
	cres, err := colorClient.Viewer().RenderColor("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Lossless || !cres.Image.Equal(im) {
		t.Error("color client should render the original exactly")
	}

	// Client 3: accepts with a transformation (grayscale rendition).
	waitFor(t, "transform client delivery", func() bool {
		st, err := bwTransform.Viewer().Stats("fig3")
		return err == nil && st.PacketsAccepted == 16
	})
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
	time.Sleep(50 * time.Millisecond)
	if _, err := bwOnly.Viewer().Stats("fig3"); err == nil {
		t.Error("B/W-only client received the color stream")
	}
	if st := bwOnly.Stats(); st.EventsFiltered == 0 {
		t.Error("B/W-only client filtered nothing")
	}
}
