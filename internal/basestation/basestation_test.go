package basestation

import (
	"errors"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
	"adaptiveqos/internal/wavelet"
)

// rig is a complete test topology: a wired multicast net with one wired
// framework client and a base station, plus a radio segment carrying
// the base station and wireless client endpoints.  Both segments are
// DESNets on one virtual clock and every node runs inline on the
// goroutine that drives it.  Every client ticks, so the clock's heap
// never drains: a test acts, settles (advances the clock) and asserts
// once.
type rig struct {
	clk      *clock.Virtual
	wiredNet *transport.DESNet
	radioNet *transport.DESNet
	bs       *BaseStation
	wired    *core.Client
}

// newNets returns the wired and radio segments on a fresh virtual
// clock.  The radio segment is a star: every link is down but those
// seat puts up between the station and a member.  Every test on them
// doubles as a frame-integrity test: collected image chunks, parked
// packets and relayed bodies all alias datagrams.
func newNets(t *testing.T) (clk *clock.Virtual, wiredNet, radioNet *transport.DESNet) {
	t.Helper()
	clk = clock.NewVirtual(time.Unix(0, 0))
	wiredNet = transport.NewDESNet(transport.DESNetConfig{Seed: 1, Clock: clk})
	radioNet = transport.NewDESNet(transport.DESNetConfig{Seed: 2, Clock: clk, DefaultLink: transport.Link{Down: true}})
	t.Cleanup(func() { wiredNet.Close(); radioNet.Close() })
	transporttest.Watch(t, wiredNet, radioNet)
	return clk, wiredNet, radioNet
}

// attach joins id to net, a DESNet or a SimNet.
func attach(t *testing.T, net interface {
	Attach(string) (transport.Conn, error)
}, id string) transport.Conn {
	t.Helper()
	conn, err := net.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// seat attaches id to a radio segment, a DESNet or a SimNet whose
// links are down by default, and puts up its link to and from the
// station "bs": a member of the star.
func seat(t *testing.T, net interface {
	Attach(string) (transport.Conn, error)
	SetLinkBoth(a, b string, l transport.Link)
}, id string) transport.Conn {
	t.Helper()
	conn := attach(t, net, id)
	net.SetLinkBoth("bs", id, transport.Link{})
	return conn
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{}
	r.clk, r.wiredNet, r.radioNet = newNets(t)
	r.bs = New("bs", attach(t, r.wiredNet, "bs"), attach(t, r.radioNet, "bs"), radio.NewChannel(radio.Params{}), cfg)
	r.wired = r.client(t, attach(t, r.wiredNet, "wired-1"))
	t.Cleanup(func() { r.bs.Close() })
	return r
}

// client runs a framework client on conn until the test ends.
func (r *rig) client(t *testing.T, conn transport.Conn) *core.Client {
	t.Helper()
	c := core.NewClient(conn, core.Config{})
	t.Cleanup(func() { c.Close() })
	return c
}

// settle runs the rig for a virtual second: every delivery in flight
// lands and every reaction to it with it, and each client ticks once
// (core.AdaptInterval).
func (r *rig) settle() { r.clk.Advance(time.Second) }

// joinWireless seats a wireless endpoint (a plain framework client on
// the radio segment) and registers it at the base station.
func (r *rig) joinWireless(t *testing.T, id string, distance, power float64) *core.Client {
	t.Helper()
	c := r.client(t, seat(t, r.radioNet, id))
	p := profile.New(id)
	p.Interests.SetString("media", "any")
	if _, err := r.bs.Join(p, distance, power); err != nil {
		t.Fatal(err)
	}
	return c
}

func testImageObject(t *testing.T) *media.Object {
	t.Helper()
	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 1), "field photo")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// holdsFullImage reports whether c holds object as a full image: on
// the packet path, every packet accepted, or as a media object.
func holdsFullImage(c *core.Client, object string) bool {
	if st, err := c.Viewer().Stats(object); err == nil && st.PacketsAccepted == st.TotalPackets {
		return true
	}
	for _, d := range c.Inbox().Items() {
		if d.Object.Kind == media.KindImage {
			return true
		}
	}
	return false
}

func TestJoinAssessLeave(t *testing.T) {
	r := newRig(t, Config{})
	r.joinWireless(t, "w1", 50, 1)

	a, err := r.bs.Assess("w1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier != radio.TierImage {
		t.Errorf("lone client tier = %s (SIR %.1f dB)", a.Tier, a.SIRdB)
	}
	if a.Distance != 50 || a.Power != 1 {
		t.Errorf("assessment geometry: %+v", a)
	}
	// The SIR is folded into the stored profile.
	if flat, _, _ := r.bs.reg.FlatSnapshot("w1"); flat["state.sir"].Num() != a.SIRdB {
		t.Error("SIR not in profile state")
	}

	// Duplicate join rejected.
	if _, err := r.bs.Join(profile.New("w1"), 10, 1); !errors.Is(err, ErrAlreadyJoined) {
		t.Errorf("duplicate join: %v", err)
	}
	if err := r.bs.Leave("w1"); err != nil {
		t.Fatal(err)
	}
	if err := r.bs.Leave("w1"); !errors.Is(err, ErrNotJoined) {
		t.Errorf("double leave: %v", err)
	}
	if _, err := r.bs.Assess("w1"); err == nil {
		t.Error("assess after leave should fail")
	}
}

func TestUplinkEventRelay(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 40, 1)
	w2 := r.joinWireless(t, "w2", 60, 1)
	_ = w1

	if err := r.bs.UplinkEvent("w1", apps.AppChat, "", apps.EncodeSay("from the field")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	// The wired client sees it via multicast.
	if r.wired.Chat().Len() != 1 || r.wired.Chat().Lines()[0].Sender != "w1" {
		t.Errorf("wired lines: %+v", r.wired.Chat().Lines())
	}
	// The other wireless client gets a unicast copy.
	if w2.Chat().Len() != 1 {
		t.Errorf("w2 holds %d lines, want 1", w2.Chat().Len())
	}

	if err := r.bs.UplinkEvent("ghost", apps.AppChat, "", nil); !errors.Is(err, ErrNotJoined) {
		t.Errorf("uplink from stranger: %v", err)
	}
	if st := r.bs.Stats(); st.UplinkEvents != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestUplinkedShareFullImageTier: a member alone in the cell shares an
// image; the station sends the session its announce and frames as they
// were sent.
func TestUplinkedShareFullImageTier(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 30, 1) // lone client: high SIR → full image

	obj := testImageObject(t)
	if err := w1.ShareImage("img-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if st, err := r.wired.Viewer().Stats("img-1"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("wired client holds img-1 as %+v (%v), want 16 packets accepted", st, err)
	}
	res, err := r.wired.Viewer().Render("img-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless {
		t.Error("full-tier relay should be lossless")
	}
	if st := r.bs.Stats(); st.ForwardFullImage != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestUplinkedShareDegradesWithInterference: a member whose uplink holds
// only a lower tier shares an image; the session and the other members
// get that tier's rendition and no frame of it.
func TestUplinkedShareDegradesWithInterference(t *testing.T) {
	r := newRig(t, Config{})
	// Three clients at equal distance: everyone's SIR collapses to
	// roughly -3 dB (two equal interferers) → text tier.
	w1 := r.joinWireless(t, "w1", 50, 1)
	w2 := r.joinWireless(t, "w2", 50, 1)
	r.joinWireless(t, "w3", 50, 1)

	a, _ := r.bs.Assess("w1")
	if a.Tier >= radio.TierImage {
		t.Fatalf("crowded channel tier = %s (SIR %.1f dB)", a.Tier, a.SIRdB)
	}

	obj := testImageObject(t)
	if err := w1.ShareImage("img-2", obj, ""); err != nil {
		t.Fatal(err)
	}
	// The wired session receives degraded content via the media inbox,
	// not the progressive image path.
	r.settle()
	for _, c := range []*core.Client{r.wired, w2} {
		if st, heard := c.ReceptionReport("w1"); heard || c.Stats().DataPackets != 0 {
			t.Errorf("%s was sent %d data frames of the degraded share", c.ID(), st.Received)
		}
	}
	if n := r.wired.Inbox().Len(); n != 1 {
		t.Fatalf("wired inbox holds %d items, want 1", n)
	}
	got, _ := r.wired.Inbox().Latest()
	if got.Object.Kind == media.KindImage {
		t.Errorf("crowded uplink forwarded kind %s", got.Object.Kind)
	}
	if got.Object.Description != "field photo" {
		t.Errorf("semantic content lost: %+v", got.Object)
	}
	// Peer wireless client receives its own tiered copy.
	if n := w2.Inbox().Len(); n != 1 {
		t.Errorf("w2's inbox holds %d items, want 1", n)
	}

	st := r.bs.Stats()
	if st.ForwardFullImage != 0 || st.ForwardSketch+st.ForwardText != 1 {
		t.Errorf("tier stats: %+v", st)
	}
}

// TestUplinkBelowServiceDropped: a member below every tier shares an
// image and says a line; the station relays neither and counts each
// once as dropped.
func TestUplinkBelowServiceDropped(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 400, 0.01) // weak and far
	w2 := r.joinWireless(t, "w2", 10, 5)     // dominant interferer

	a, _ := r.bs.Assess("w1")
	if a.Tier != radio.TierNone {
		t.Fatalf("geometry did not produce TierNone (SIR %.1f dB)", a.SIRdB)
	}
	if err := w1.ShareImage("img-x", testImageObject(t), ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	for _, c := range []*core.Client{r.wired, w2} {
		if st := c.Stats(); st.EventsReceived != 0 || st.DataPackets != 0 || c.Inbox().Len() != 0 {
			t.Errorf("%s was relayed the hopeless share: %+v, %d inbox items", c.ID(), st, c.Inbox().Len())
		}
	}
	if err := r.bs.UplinkEvent("w1", apps.AppChat, "", apps.EncodeSay("hello?")); !errors.Is(err, ErrNoService) {
		t.Errorf("hopeless event: %v", err)
	}
	if st := r.bs.Stats(); st.UplinkDropped != 2 || st.UplinkEvents != 0 {
		t.Errorf("dropped = %d, relayed = %d, want 2 and 0", st.UplinkDropped, st.UplinkEvents)
	}
}

func TestDownlinkTieredDelivery(t *testing.T) {
	r := newRig(t, Config{Thresholds: tierThresholds})
	wNear := r.joinWireless(t, "near", 20, 1) // strong: full image
	wFar := r.joinWireless(t, "far", 40, 1)   // weaker: degraded

	near, _ := r.bs.Assess("near")
	far, _ := r.bs.Assess("far")
	if near.Tier != radio.TierImage || far.Tier >= radio.TierImage || far.Tier == radio.TierNone {
		t.Fatalf("tiers: near=%s far=%s, want image and a degraded one", near.Tier, far.Tier)
	}

	// A wired client shares an image into the session.
	im := wavelet.Medical(64, 64, 9)
	obj, err := media.EncodeImage(im, "hq map")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wired.ShareImage("map-1", obj, ""); err != nil {
		t.Fatal(err)
	}

	r.settle()

	// The near client receives the full image: on the packet path, or
	// as a media object.
	if !holdsFullImage(wNear, "map-1") {
		t.Error("near client holds no full image")
	}
	// The far client receives degraded content only.
	if wFar.Inbox().Len() == 0 {
		t.Error("far client received nothing")
	}
	for _, d := range wFar.Inbox().Items() {
		if d.Object.Kind == media.KindImage {
			t.Errorf("far client received full image at tier %s", far.Tier)
		}
		if d.Object.Description != "hq map" {
			t.Errorf("description lost: %+v", d.Object)
		}
	}
}

func TestDownlinkHonorsModalityPreference(t *testing.T) {
	r := newRig(t, Config{Thresholds: tierThresholds})
	w := r.joinWireless(t, "w1", tierDistances[radio.TierImage][0], 1) // excellent channel
	// The client switches to text mode (battery conservation): the BS
	// must deliver text even though the SIR admits the full image.
	p := profile.New("w1")
	p.Preferences.SetString("modality", "text")
	r.bs.reg.Put(p)

	obj, err := media.EncodeImage(wavelet.Circles(32, 32), "diagram")
	if err != nil {
		t.Fatal(err)
	}
	// The same goes for a share another member uplinks at the image tier.
	w2 := r.joinWireless(t, "w2", tierDistances[radio.TierImage][1], 1)
	for _, id := range []string{"w1", "w2"} {
		if a, err := r.bs.Assess(id); err != nil || a.Tier != radio.TierImage {
			t.Fatalf("%s assessed %s at %.1f dB (%v)", id, a.Tier, a.SIRdB, err)
		}
	}
	shares := []func() error{
		func() error { return r.wired.ShareImage("d-1", obj, "") },
		func() error { return w2.ShareImage("d-2", obj, "") },
	}
	for i, share := range shares {
		if err := share(); err != nil {
			t.Fatal(err)
		}
		r.settle()
		if n := w.Inbox().Len(); n != i+1 {
			t.Fatalf("share %d: inbox holds %d items, want %d", i+1, n, i+1)
		}
		got, _ := w.Inbox().Latest()
		if got.Object.Kind != media.KindText || string(got.Object.Data) != "diagram" {
			t.Errorf("share %d: preference ignored: got %s %q", i+1, got.Object.Kind, got.Object.Data)
		}
	}
	// Sent after d-2's packets would have been: no image came with it.
	if err := r.bs.UplinkEvent("w2", apps.AppChat, "", apps.EncodeSay("done")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if w.Chat().Len() != 1 {
		t.Errorf("w1 holds %d chat lines, want 1", w.Chat().Len())
	}
	for _, sender := range []string{r.wired.ID(), "w2"} {
		if st, heard := w.ReceptionReport(sender); heard {
			t.Errorf("w1 was sent %d data frames of %s's share", st.Received, sender)
		}
	}
	if got := w.Viewer().Objects(); len(got) != 0 || w.Inbox().Len() != 2 {
		t.Errorf("text-mode member holds images %v and %d inbox items, want none and 2", got, w.Inbox().Len())
	}
}

func TestWirelessUplinkOverRF(t *testing.T) {
	// A wireless client transmits framework messages over the radio
	// segment; the BS relays them without an explicit API call.
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 30, 1)

	if err := w.Say("over the air", ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if r.wired.Chat().Len() != 1 || r.wired.Chat().Lines()[0].Sender != "w1" {
		t.Errorf("relayed sender: %+v", r.wired.Chat().Lines())
	}
}

func TestPowerControlAPI(t *testing.T) {
	r := newRig(t, Config{})
	r.joinWireless(t, "w1", 30, 5)
	r.joinWireless(t, "w2", 100, 5)

	before, _ := r.bs.Assess("w1")
	powers, err := r.bs.PowerControl(-4, 1e-6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(powers) != 2 {
		t.Errorf("powers: %v", powers)
	}
	// The over-target client was asked to reduce power.
	if powers["w1"] >= 5 && before.SIRdB > -4 {
		t.Errorf("w1 power %g not reduced from 5", powers["w1"])
	}
}

func TestMoreClientsDegradeService(t *testing.T) {
	// The Fig 10 mechanism through the BS API: each join drops the
	// first client's SIR; eventually the tier degrades.
	r := newRig(t, Config{})
	r.joinWireless(t, "w1", 50, 1)
	a1, _ := r.bs.Assess("w1")

	r.joinWireless(t, "w2", 50, 1)
	a2, _ := r.bs.Assess("w1")
	if a2.SIRdB >= a1.SIRdB {
		t.Errorf("SIR did not drop on join: %.1f -> %.1f", a1.SIRdB, a2.SIRdB)
	}
	r.joinWireless(t, "w3", 50, 1)
	a3, _ := r.bs.Assess("w1")
	if a3.SIRdB >= a2.SIRdB {
		t.Errorf("SIR did not drop on second join: %.1f -> %.1f", a2.SIRdB, a3.SIRdB)
	}
	if a1.Tier == radio.TierImage && a3.Tier == radio.TierImage {
		t.Error("tier should degrade as the cell fills")
	}
}

// TestChurnDuringTraffic: wireless clients join and leave while events
// flow; the base station keeps serving the surviving population and
// the departed client's service assessments fail cleanly.
func TestChurnDuringTraffic(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 40, 1)
	w2 := r.joinWireless(t, "w2", 55, 1)
	_ = w1

	for i := 0; i < 5; i++ {
		if err := r.bs.UplinkEvent("w1", apps.AppChat, "", apps.EncodeSay("before churn")); err != nil {
			t.Fatal(err)
		}
	}
	r.settle()
	if n := r.wired.Chat().Len(); n != 5 {
		t.Fatalf("wired client holds %d lines before the churn, want 5", n)
	}

	// w2 departs mid-session.
	if err := r.bs.Leave("w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.bs.Assess("w2"); err == nil {
		t.Error("assessment of departed client should fail")
	}
	// w1's SIR improves once its interferer is gone.
	a, err := r.bs.Assess("w1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier != radio.TierImage {
		t.Errorf("post-churn tier = %s (SIR %.1f dB)", a.Tier, a.SIRdB)
	}
	// Traffic continues to the survivors only.
	if err := r.bs.UplinkEvent("w1", apps.AppChat, "", apps.EncodeSay("after churn")); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if n := r.wired.Chat().Len(); n != 6 {
		t.Errorf("wired client holds %d lines after the churn, want 6", n)
	}
	if got := w2.Chat().Len(); got != 5 {
		t.Errorf("departed client holds %d lines, want the 5 from before it left", got)
	}

	// A fresh client can take the departed one's place.
	r.joinWireless(t, "w3", 55, 1)
	if len(r.bs.Clients()) != 2 {
		t.Errorf("clients after rejoin: %v", r.bs.Clients())
	}
}
