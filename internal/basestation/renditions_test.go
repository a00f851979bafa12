package basestation

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/wavelet"
)

// TestRenditionsMatchPerClientDerivation is the differential for the
// rendition set: for a gray and a colour share, in the collected form
// (raster in hand) and the uplink form (object only), the image
// packets, sketch bytes and text bytes are what apps.ShareImage and
// Registry.Transmode — the per-client route — produce from the object.
func TestRenditionsMatchPerClientDerivation(t *testing.T) {
	r := newRig(t, Config{})
	reg := media.DefaultRegistry()

	gray := wavelet.Medical(64, 48, 3)
	grayObj, err := media.EncodeImage(gray, "gray scan")
	if err != nil {
		t.Fatal(err)
	}
	color := wavelet.ColorScene(48, 64, 5)
	colorObj, err := media.EncodeColorImage(color, "colour scene")
	if err != nil {
		t.Fatal(err)
	}
	luma := func() *wavelet.Image {
		l := color.Luma()
		l.Clamp8()
		return l
	}
	for name, rs := range map[string]*renditions{
		"gray collected":   {obj: grayObj, gray: func() *wavelet.Image { return gray }},
		"gray uplink":      {obj: grayObj},
		"colour collected": {obj: colorObj, gray: luma},
		"colour uplink":    {obj: colorObj},
	} {
		rs.bs, rs.sender, rs.object = r.bs, "pub", "obj-1"

		meta, packets, err := apps.ShareImage(rs.object, rs.obj, r.bs.cfg.TotalPackets)
		if err != nil {
			t.Fatal(err)
		}
		im := rs.imageTier()
		if im.err != nil || !bytes.Equal(im.payload, apps.EncodeImageMeta(meta)) || len(im.packets) != len(packets) {
			t.Fatalf("%s: image announce differs (err %v)", name, im.err)
		}
		for i := range packets {
			if !bytes.Equal(im.packets[i], packets[i]) {
				t.Errorf("%s: image packet %d differs", name, i)
			}
		}
		for kind, got := range map[media.Kind]*rendition{media.KindSketch: rs.sketchTier(), media.KindText: rs.textTier()} {
			o, err := reg.Transmode(rs.obj, kind)
			if err != nil {
				t.Fatal(err)
			}
			want, err := apps.EncodeMediaObject(o)
			if err != nil {
				t.Fatal(err)
			}
			if got.err != nil || !bytes.Equal(got.payload, want) {
				t.Errorf("%s: %s rendition differs from Transmode's (err %v)", name, kind, got.err)
			}
		}
	}
}

// counted wraps a transformer and counts its runs.
type counted struct {
	media.Transformer
	n *atomic.Int64
}

func (c counted) Transform(in *media.Object) (*media.Object, error) {
	c.n.Add(1)
	return c.Transformer.Transform(in)
}

// tierRig is a base station with two wireless clients in each of the
// named tiers; newTierRig gives it a registry that counts derivations.
type tierRig struct {
	*rig
	sketches, texts atomic.Int64
	clients         map[radio.Tier][]*core.Client
}

func newTierRig(t *testing.T, tiers ...radio.Tier) *tierRig {
	t.Helper()
	tr := &tierRig{}
	reg := media.NewRegistry()
	reg.Register(counted{media.ImageToSketch{}, &tr.sketches})
	reg.Register(counted{media.ImageToText{}, &tr.texts})
	tr.place(t, Config{Registry: reg}, tiers...)
	return tr
}

// Under tierThresholds, two members at tierDistances[tier] each are
// assessed into that tier in every combination of tiers these tests
// seat (each rig asserts its placement).
var (
	tierThresholds = radio.Thresholds{ImageDB: -7, SketchDB: -17, TextDB: -30}
	tierDistances  = map[radio.Tier][2]float64{radio.TierImage: {20, 22}, radio.TierSketch: {40, 44}, radio.TierText: {80, 88}}
)

// place builds the rig under cfg and seats two clients in each tier.
func (tr *tierRig) place(t *testing.T, cfg Config, tiers ...radio.Tier) {
	t.Helper()
	// Several shards, so the once-guards are met from several goroutines.
	cfg.FanOutWorkers = 4
	cfg.Thresholds = tierThresholds
	tr.rig = newRig(t, cfg)
	tr.clients = make(map[radio.Tier][]*core.Client)
	for _, tier := range tiers {
		for i, d := range tierDistances[tier] {
			tr.clients[tier] = append(tr.clients[tier], tr.joinWireless(t, fmt.Sprintf("%s-%d", tier, i), d, 1))
		}
	}
	for _, tier := range tiers {
		for i := range tr.clients[tier] {
			if a, err := tr.bs.Assess(fmt.Sprintf("%s-%d", tier, i)); err != nil || a.Tier != tier {
				t.Fatalf("placement: %s-%d assessed %s at %.1f dB (%v)", tier, i, a.Tier, a.SIRdB, err)
			}
		}
	}
}

// awaitShare waits until every client holds its rendition of share n
// (1-based; lower tiers get one inbox item per share).
func (tr *tierRig) awaitShare(t *testing.T, object string, n int, skip *core.Client) {
	t.Helper()
	for tier, clients := range tr.clients {
		for _, c := range clients {
			if c == skip {
				continue
			}
			c := c
			if tier == radio.TierImage {
				waitFor(t, "image packets at "+c.ID(), func() bool {
					st, err := c.Viewer().Stats(object)
					return err == nil && st.PacketsAccepted == st.TotalPackets
				})
			} else {
				waitFor(t, "rendition at "+c.ID(), func() bool { return c.Inbox().Len() >= n })
			}
		}
	}
}

// TestOneDerivationPerOccupiedTier: six members in three tiers cost one
// sketch and one text derivation per share, on the collected-image path
// and on the uplink path; an empty tier's rendition is never built.
func TestOneDerivationPerOccupiedTier(t *testing.T) {
	grayObj := testImageObject(t)
	colorObj, err := media.EncodeColorImage(wavelet.ColorScene(48, 48, 2), "colour scene")
	if err != nil {
		t.Fatal(err)
	}

	tr := newTierRig(t, radio.TierImage, radio.TierSketch, radio.TierText)
	for i, obj := range []*media.Object{grayObj, colorObj} {
		object := fmt.Sprintf("collected-%d", i)
		if err := tr.wired.ShareImage(object, obj, ""); err != nil {
			t.Fatal(err)
		}
		tr.awaitShare(t, object, i+1, nil)
		if s, x := tr.sketches.Load(), tr.texts.Load(); s != int64(i+1) || x != int64(i+1) {
			t.Fatalf("collected share %d: %d sketch and %d text derivations so far, want %d each", i, s, x, i+1)
		}
	}
	for _, d := range tr.clients[radio.TierSketch][1].Inbox().Items() {
		if d.Object.Kind != media.KindSketch {
			t.Errorf("sketch-tier client got %s", d.Object)
		}
	}
	for _, d := range tr.clients[radio.TierText][1].Inbox().Items() {
		if d.Object.Kind != media.KindText {
			t.Errorf("text-tier client got %s", d.Object)
		}
	}

	sender := tr.clients[radio.TierImage][0]
	if err := tr.bs.UplinkShare(sender.ID(), "uplinked", "", grayObj); err != nil {
		t.Fatal(err)
	}
	tr.awaitShare(t, "uplinked", 3, sender)
	if s, x := tr.sketches.Load(), tr.texts.Load(); s != 3 || x != 3 {
		t.Errorf("uplink share: %d sketch and %d text derivations in total, want 3 each", s, x)
	}

	// No sketch-tier member: the sketch is never derived.
	tr = newTierRig(t, radio.TierImage, radio.TierText)
	if err := tr.wired.ShareImage("no-sketch", grayObj, ""); err != nil {
		t.Fatal(err)
	}
	tr.awaitShare(t, "no-sketch", 1, nil)
	if err := tr.bs.UplinkShare(tr.clients[radio.TierImage][0].ID(), "no-sketch-up", "", colorObj); err != nil {
		t.Fatal(err)
	}
	if s, x := tr.sketches.Load(), tr.texts.Load(); s != 0 || x != 2 {
		t.Errorf("image+text tiers only: %d sketch and %d text derivations, want 0 and 2", s, x)
	}

	// Image tier only: nothing is transformed at all.
	tr = newTierRig(t, radio.TierImage)
	if err := tr.wired.ShareImage("image-only", colorObj, ""); err != nil {
		t.Fatal(err)
	}
	tr.awaitShare(t, "image-only", 1, nil)
	if s, x := tr.sketches.Load(), tr.texts.Load(); s != 0 || x != 0 {
		t.Errorf("image tier only: %d sketch and %d text derivations, want none", s, x)
	}
}

// TestUnsketchableFallsBackToText: content the registry cannot sketch
// reaches sketch-tier members as text — the fallback the per-client
// code had, now taken from the share's one text rendition.
func TestUnsketchableFallsBackToText(t *testing.T) {
	tr := newTierRig(t, radio.TierImage, radio.TierSketch)
	sender := tr.clients[radio.TierImage][0]
	note := media.NewText("meet at the north gate")
	if err := tr.bs.UplinkShare(sender.ID(), "note", "", note); err != nil {
		t.Fatal(err)
	}
	for _, c := range append(tr.clients[radio.TierSketch], tr.clients[radio.TierImage][1], tr.wired) {
		c := c
		waitFor(t, "note at "+c.ID(), func() bool { return c.Inbox().Len() == 1 })
		if d, _ := c.Inbox().Latest(); d.Object.Kind != media.KindText || !bytes.Equal(d.Object.Data, note.Data) {
			t.Errorf("%s got %s, want the text note", c.ID(), d.Object)
		}
	}
}
