package basestation

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/wavelet"
)

// TestRenditionsMatchPerClientDerivation is the differential for the
// rendition set, through the station's public paths: for a gray and a
// colour share, relayed from the wired side and uplinked by a member,
// what the image-, sketch- and text-tier members end up holding is what
// apps.ShareImage and Registry.Transmode — the per-client route —
// produce from the object.
func TestRenditionsMatchPerClientDerivation(t *testing.T) {
	tr := &tierRig{}
	tr.place(t, Config{}, radio.TierImage, radio.TierSketch, radio.TierText)
	reg := media.DefaultRegistry()

	grayObj, err := media.EncodeImage(wavelet.Medical(64, 48, 3), "gray scan")
	if err != nil {
		t.Fatal(err)
	}
	colorObj, err := media.EncodeColorImage(wavelet.ColorScene(48, 64, 5), "colour scene")
	if err != nil {
		t.Fatal(err)
	}
	uplinker := tr.clients[radio.TierImage][0]
	shares := 0
	for _, obj := range []*media.Object{grayObj, colorObj} {
		for _, uplink := range []bool{false, true} {
			shares++
			object := fmt.Sprintf("obj-%d", shares)
			name := fmt.Sprintf("%s uplink=%v", obj.Description, uplink)
			var skip *core.Client
			if uplink {
				skip = uplinker
				err = uplinker.ShareImage(object, obj, "")
			} else {
				err = tr.wired.ShareImage(object, obj, "")
			}
			if err != nil {
				t.Fatal(err)
			}
			tr.checkShare(t, object, shares, skip)

			// The image tier holds what a viewer given ShareImage's split
			// holds, and renders it alike.
			meta, packets, err := apps.ShareImage(object, obj, apps.SharePackets)
			if err != nil {
				t.Fatal(err)
			}
			ref := apps.NewImageViewer()
			ref.Announce(meta)
			for i, p := range packets {
				ref.AddPacket(object, i, p)
			}
			member := tr.clients[radio.TierImage][1].Viewer()
			want, _ := ref.Stats(object)
			if got, err := member.Stats(object); err != nil || got != want {
				t.Errorf("%s: image tier holds %+v, ShareImage's split %+v (err %v)", name, got, want, err)
			}
			if res, err := member.Render(object); err != nil || !res.Image.Equal(mustRender(t, ref, object).Image) {
				t.Errorf("%s: image tier renders another image (err %v)", name, err)
			}
			for tier, kind := range map[radio.Tier]media.Kind{radio.TierSketch: media.KindSketch, radio.TierText: media.KindText} {
				o, err := reg.Transmode(obj, kind)
				if err != nil {
					t.Fatal(err)
				}
				want, err := apps.EncodeMediaObject(o)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range tr.clients[tier] {
					d, _ := c.Inbox().Latest()
					if have, err := apps.EncodeMediaObject(d.Object); err != nil || !bytes.Equal(have, want) {
						t.Errorf("%s: %s holds %s, not Transmode's %s rendition (err %v)", name, c.ID(), d.Object, kind, err)
					}
				}
			}
		}
	}
}

func mustRender(t *testing.T, v *apps.ImageViewer, object string) *wavelet.DecodeResult {
	t.Helper()
	res, err := v.Render(object)
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	tr.place(t, Config{registry: reg}, tiers...)
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

// checkShare settles the rig and checks that every client but skip
// holds its rendition of share n (1-based; lower tiers get one inbox
// item per share).
func (tr *tierRig) checkShare(t *testing.T, object string, n int, skip *core.Client) {
	t.Helper()
	tr.settle()
	for tier, clients := range tr.clients {
		for _, c := range clients {
			switch {
			case c == skip:
			case tier == radio.TierImage:
				if st, err := c.Viewer().Stats(object); err != nil || st.PacketsAccepted != st.TotalPackets {
					t.Fatalf("%s holds %s as %+v (%v), want every packet", c.ID(), object, st, err)
				}
			case c.Inbox().Len() != n:
				t.Fatalf("%s holds %d renditions after share %d", c.ID(), c.Inbox().Len(), n)
			}
		}
	}
}

// TestOneDerivationPerOccupiedTier: six members in three tiers cost one
// sketch and one text derivation per share, on the wired-share path
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
		tr.checkShare(t, object, i+1, nil)
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
	if err := sender.ShareImage("uplinked", grayObj, ""); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "uplinked", 3, sender)
	if s, x := tr.sketches.Load(), tr.texts.Load(); s != 3 || x != 3 {
		t.Errorf("uplink share: %d sketch and %d text derivations in total, want 3 each", s, x)
	}

	// No sketch-tier member: the sketch is never derived.
	tr = newTierRig(t, radio.TierImage, radio.TierText)
	if err := tr.wired.ShareImage("no-sketch", grayObj, ""); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "no-sketch", 1, nil)
	if err := tr.clients[radio.TierImage][0].ShareImage("no-sketch-up", colorObj, ""); err != nil {
		t.Fatal(err)
	}
	tr.settle()
	if s, x := tr.sketches.Load(), tr.texts.Load(); s != 0 || x != 2 {
		t.Errorf("image+text tiers only: %d sketch and %d text derivations, want 0 and 2", s, x)
	}

	// Image tier only: nothing is transformed at all.
	tr = newTierRig(t, radio.TierImage)
	if err := tr.wired.ShareImage("image-only", colorObj, ""); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "image-only", 1, nil)
	if s, x := tr.sketches.Load(), tr.texts.Load(); s != 0 || x != 0 {
		t.Errorf("image tier only: %d sketch and %d text derivations, want none", s, x)
	}
}

// TestUnsketchableFallsBackToText: a share the registry cannot sketch —
// here a registry with no route to a sketch at all — reaches sketch-tier
// members as text, the fallback the per-client code had, taken from the
// share's one text rendition, while the image tier and the session get
// the image a member shares.
func TestUnsketchableFallsBackToText(t *testing.T) {
	reg := media.NewRegistry()
	reg.Register(media.ImageToText{})
	tr := &tierRig{}
	tr.place(t, Config{registry: reg}, radio.TierImage, radio.TierSketch)
	sender := tr.clients[radio.TierImage][0]
	obj := testImageObject(t)
	if err := sender.ShareImage("note", obj, ""); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "note", 1, sender)
	for _, c := range tr.clients[radio.TierSketch] {
		if got := latestFrom(t, c, media.KindText); string(got.Data) != obj.Description {
			t.Errorf("%s holds the text %q, want the share's description", c.ID(), got.Data)
		}
	}
	if !holdsFullImage(tr.wired, "note") || tr.wired.Inbox().Len() != 0 {
		t.Errorf("the session holds the share as %d inbox items, want the image", tr.wired.Inbox().Len())
	}
}

// TestSketchTierServesTheCarriedSketch: the sketch tier of a collected
// share and of one a member uplinks over the radio is the sketch the
// share carries, byte for byte — here one drawn from another image than
// the stream, which no derivation from the stream yields, so nothing
// was decoded.  A share that carries no sketch, or one that fails its
// header check, reaches sketch-tier members as its text and counts once
// on the fallback counter.
func TestSketchTierServesTheCarriedSketch(t *testing.T) {
	tr := newTierRig(t, radio.TierImage, radio.TierSketch)
	in := newWiredInjector(t, tr.rig, "pub")
	uplinker := tr.clients[radio.TierImage][0]
	foreign, err := media.EncodeImage(wavelet.Blocks(64, 64, 8, 9), "field photo")
	if err != nil {
		t.Fatal(err)
	}
	obj := testImageObject(t)
	if obj.Sketch == foreign.Sketch {
		t.Fatal("the two images draw the same sketch")
	}
	fallbacks := metrics.C(metrics.CtrSketchFallbacks)
	before := fallbacks.Load()

	shares := 0
	for _, sketch := range []string{foreign.Sketch, "", "SK01\x00\x07\x00\x00", foreign.Sketch[:7]} {
		o := obj.Clone()
		o.Sketch = sketch
		for _, uplink := range []bool{false, true} {
			shares++
			object := fmt.Sprintf("share-%d", shares)
			skip := (*core.Client)(nil)
			if uplink {
				skip = uplinker
				err = uplinker.ShareImage(object, o, "")
			} else {
				err = shareVia(in, object, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			tr.checkShare(t, object, shares, skip)
			kind, want := media.KindSketch, foreign.Sketch
			if sketch != foreign.Sketch {
				kind, want = media.KindText, obj.Description
			}
			for _, c := range tr.clients[radio.TierSketch] {
				if got := latestFrom(t, c, kind); string(got.Data) != want {
					t.Errorf("%s (uplink %v, sketch %q): %s holds %q, want %q", object, uplink, sketch, c.ID(), got.Data, want)
				}
			}
		}
	}
	if got := fallbacks.Load() - before; got != 6 {
		t.Errorf("%d sketch-tier fallbacks, want one per share without a valid sketch, 6", got)
	}
}

// TestImageTierFramesSharedByMembers: the image tier's RTP frames are
// stamped once per frame of a share a member uplinks, so both of the
// other members receive byte-identical data bodies — one timestamp for
// the whole image, sequence numbers 0…15, the marker on the last —
// whose payloads are ShareImage's split.
func TestImageTierFramesSharedByMembers(t *testing.T) {
	c := newBareCell(t, 0, 2)
	sender := core.NewClient(seat(t, c.radioNet, "sender"), core.Config{})
	t.Cleanup(func() { sender.Close() })
	if _, err := c.bs.Join(profile.New("sender"), 30, 1); err != nil {
		t.Fatal(err)
	}
	obj := testImageObject(t)
	_, packets, err := apps.ShareImage("scan", obj, apps.SharePackets)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.ShareImage("scan", obj, ""); err != nil {
		t.Fatal(err)
	}
	c.settle()
	var bodies [2][][]byte
	for i, conn := range c.members {
		u := message.NewUnwrapper()
		for frames := 0; frames < 1+len(packets); {
			frame, err := u.Unwrap("bs", take(t, fmt.Sprintf("frame %d of %d", frames+1, 1+len(packets)), conn))
			if err != nil {
				t.Fatal(err)
			}
			if frame == nil {
				continue
			}
			frames++
			m, err := message.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind == message.KindData {
				bodies[i] = append(bodies[i], m.Body)
			}
		}
	}
	if len(bodies[0]) != len(packets) || len(bodies[1]) != len(packets) {
		t.Fatalf("members hold %d and %d data bodies, want %d", len(bodies[0]), len(bodies[1]), len(packets))
	}
	for i, body := range bodies[0] {
		if !bytes.Equal(body, bodies[1][i]) {
			t.Errorf("packet %d: the members' RTP bodies differ", i)
		}
		p, err := rtp.Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := rtp.Unmarshal(bodies[0][0])
		if p.Seq != uint16(i) || p.Timestamp != first.Timestamp || p.SSRC != first.SSRC ||
			p.Marker != (i == len(packets)-1) || !bytes.Equal(p.Payload, packets[i]) {
			t.Errorf("packet %d: seq %d ts %d marker %v, %d B; want seq %d, the share's one timestamp %d, %d B",
				i, p.Seq, p.Timestamp, p.Marker, len(p.Payload), i, first.Timestamp, len(packets[i]))
		}
	}
}

// TestShareAttrsAreTheMergedMap: the attribute list a share or a
// rendition is sent with, written name-sorted straight from the object,
// is the list the object's attribute map merged with the taking app and
// the share's name gives, for every kind of object a tier carries.
func TestShareAttrsAreTheMergedMap(t *testing.T) {
	gray := testImageObject(t)
	colour, err := media.EncodeColorImage(wavelet.ColorScene(32, 32, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	objects := []*media.Object{
		gray, colour,
		{Kind: media.KindImage, Format: media.FormatEZW, Description: "announced", Width: 256, Height: 128},
		{Kind: media.KindSketch, Format: media.FormatSketch, Data: []byte("sk"), Description: "d", Width: 32, Height: 16},
		{Kind: media.KindText, Format: media.FormatText, Data: []byte("a caption"), Description: "a caption"},
		{Kind: media.KindSpeech, Format: "pcm-sim"},
	}
	for _, o := range objects {
		for _, app := range []string{apps.AppMedia, apps.AppImageViewer} {
			merged := o.Attrs().Merge(selector.Attributes{
				message.AttrApp:    selector.S(app),
				message.AttrObject: selector.S("share"),
			})
			var want []message.Attr
			for _, name := range merged.Names() {
				want = append(want, message.Attr{Name: name, Value: merged[name]})
			}
			got := apps.ShareAttrs(nil, app, o, "share")
			if !slices.Equal(got, want) {
				t.Errorf("%s: ShareAttrs gives %v, the merged map %v", o, got, want)
			}
			var m message.Message
			m.SetAttrs(got) // panics unless strictly name-sorted
		}
	}
}
