package basestation

import (
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
)

// TestWirelessUnjoinedSenderIgnored: RF frames from a client that
// never joined are dropped.
func TestWirelessUnjoinedSenderIgnored(t *testing.T) {
	r := newRig(t, Config{})
	conn := seat(t, r.radioNet, "stranger")
	m := &message.Message{
		Kind:      message.KindEvent,
		Sender:    "stranger",
		Seq:       1,
		Timestamp: r.clk.Now(),
		Attrs:     selector.Attributes{message.AttrApp: selector.S(apps.AppChat)},
		Body:      apps.EncodeSay("let me in"),
	}
	frame, _ := message.Encode(m)
	if err := conn.Unicast("bs", message.WrapWhole(frame)); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if r.wired.Chat().Len() != 0 {
		t.Error("unjoined sender's chat was relayed")
	}
	if st := r.bs.Stats(); st.UplinkEvents != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestDegradedRFShare: a share's frames, sent over the radio by a
// member whose uplink holds only a degraded tier, go nowhere: the
// session gets the degraded rendition of its announce and not one
// frame, even from a member that sends its frames first.
func TestDegradedRFShare(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 50, 1)
	r.joinWireless(t, "w2", 50, 1)
	r.joinWireless(t, "w3", 50, 1)

	if a, _ := r.bs.Assess("w1"); a.Tier >= radio.TierImage {
		t.Fatalf("tier = %s, want degraded", a.Tier)
	}
	meta, packets, err := apps.ShareImage("rf-img-2", testImageObject(t), apps.SharePackets)
	if err != nil {
		t.Fatal(err)
	}
	rf := wConn(t, r, w1.ID())
	seq := uint32(0)
	send := func(m *message.Message) {
		seq++
		m.Sender, m.Seq, m.Timestamp = w1.ID(), seq, r.clk.Now()
		frame, err := message.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := rf.Unicast("bs", message.WrapWhole(frame)); err != nil {
			t.Fatal(err)
		}
	}
	app, object := selector.S(apps.AppImageViewer), selector.S("rf-img-2")
	for i, p := range packets {
		rp := rtp.Packet{PayloadType: 96, Marker: i == len(packets)-1, Seq: uint16(i), SSRC: 1, Payload: p}
		send(&message.Message{Kind: message.KindData, Body: rp.Marshal(), Attrs: selector.Attributes{
			message.AttrApp: app, message.AttrObject: object, message.AttrLevel: selector.N(float64(i))}})
	}
	send(&message.Message{Kind: message.KindEvent, Body: apps.EncodeImageMeta(meta),
		Attrs: selector.Attributes{message.AttrApp: app, message.AttrObject: object}})
	r.settle()
	if n := r.wired.Inbox().Len(); n != 1 {
		t.Fatalf("wired inbox holds %d items, want the degraded share", n)
	}
	got, _ := r.wired.Inbox().Latest()
	if got.Object.Kind == "image" {
		t.Errorf("degraded share forwarded as image")
	}
	if st := r.wired.Stats(); st.DataPackets != 0 || len(r.wired.Viewer().Objects()) != 0 {
		t.Errorf("the session was sent %d frames of the degraded share (viewer holds %v)", st.DataPackets, r.wired.Viewer().Objects())
	}
}

// wConn digs out a raw radio-segment connection for a client by
// attaching a sibling endpoint (clients own their conns privately).
func wConn(t *testing.T, r *rig, id string) interface {
	Unicast(string, []byte) error
} {
	t.Helper()
	return spoofConn{conn: seat(t, r.radioNet, id+"-raw")}
}

// spoofConn relays unicast through a sibling attachment; the message's
// Sender field, not the transport node ID, identifies the client to
// the BS (as with real UDP sources behind NAT).
type spoofConn struct {
	conn interface {
		Unicast(string, []byte) error
	}
}

func (s spoofConn) Unicast(to string, frame []byte) error { return s.conn.Unicast(to, frame) }

// TestWirelessShareCrossesTheStation: on a radio segment that is a star,
// a wireless member's line and image share reach the session and the
// other members through the station only, each at its own tier.  An
// image-tier member says a line and shares an image, then a wired
// client shares one back.  The wired client holds the member's share
// whole; the text-tier member holds its text rendition and not one
// packet; the sketch-tier member holds the sketch the share carries;
// every member holds the line once; and no member is delivered a frame
// another member sent — the sender's reception report about the wired
// share among them — which the segment counts as dropped instead.
func TestWirelessShareCrossesTheStation(t *testing.T) {
	r := newRig(t, Config{Thresholds: tierThresholds})
	sender := r.joinWireless(t, "w-image", tierDistances[radio.TierImage][0], 1)
	sketch := r.joinWireless(t, "w-sketch", tierDistances[radio.TierSketch][0], 1)
	text := r.joinWireless(t, "w-text", tierDistances[radio.TierText][0], 1)
	for _, c := range []struct {
		id   string
		tier radio.Tier
	}{{"w-image", radio.TierImage}, {"w-sketch", radio.TierSketch}, {"w-text", radio.TierText}} {
		if a, err := r.bs.Assess(c.id); err != nil || a.Tier != c.tier {
			t.Fatalf("placement: %s assessed %s at %.1f dB (%v), want %s", c.id, a.Tier, a.SIRdB, err, c.tier)
		}
	}
	integrity := transporttest.Watch(t)
	var leaks []string
	r.radioNet.SetTrace(func(e transport.TraceEvent) {
		integrity.Observe(e)
		if e.Kind == transport.TraceDeliver && e.From != "bs" && e.To != "bs" {
			leaks = append(leaks, e.From+">"+e.To)
		}
	})

	obj := testImageObject(t)
	if err := sender.Say("from the field", ""); err != nil {
		t.Fatal(err)
	}
	if err := sender.ShareImage("field", obj, ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if err := r.wired.ShareImage("back", obj, ""); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * core.AdaptInterval) // the sender hears it and reports on its tick

	if st, err := r.wired.Viewer().Stats("field"); err != nil || st.PacketsAccepted != 16 {
		t.Errorf("the wired client holds the member's share as %+v (%v), want all 16 packets", st, err)
	}
	if st := text.Stats(); st.DataPackets != 0 || len(text.Viewer().Objects()) != 0 {
		t.Errorf("the text-tier member holds %d packets of %v, want none", st.DataPackets, text.Viewer().Objects())
	}
	for _, it := range text.Inbox().Items() {
		if it.Object.Kind != media.KindText {
			t.Errorf("the text-tier member holds a %s rendition", it.Object.Kind)
		}
	}
	if n := text.Inbox().Len(); n != 2 {
		t.Errorf("the text-tier member holds %d renditions, want the two shares' texts", n)
	}
	if got := latestFrom(t, sketch, media.KindSketch); string(got.Data) != obj.Sketch {
		t.Errorf("the sketch-tier member holds %d sketch bytes, not the %d the share carries", len(got.Data), len(obj.Sketch))
	}
	for _, c := range []*core.Client{r.wired, sender, sketch, text} {
		if lines := c.Chat().Lines(); len(lines) != 1 || lines[0].Sender != sender.ID() {
			t.Errorf("%s holds the lines %+v, want the member's once", c.ID(), lines)
		}
	}
	if sender.Stats().ReportsSent == 0 {
		t.Error("the sender sent no reception report about the wired share")
	}
	if len(leaks) != 0 {
		t.Errorf("members were delivered one another's frames: %v", leaks)
	}
	for _, c := range []*core.Client{sketch, text} {
		if d := r.radioNet.Stats(c.ID()).Dropped; d < 18 {
			t.Errorf("%s: %d frames dropped on links to it, want the sender's line, announce and 16 packets at least", c.ID(), d)
		}
	}
}
