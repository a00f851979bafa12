package basestation

import (
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
)

// TestWirelessMediaShareOverRF: a wireless client transmits a media
// object as a framework message over the radio segment; the base
// station relays it at the SIR-admitted tier without any direct API
// call.
func TestWirelessMediaShareOverRF(t *testing.T) {
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 30, 1) // lone client: full-image tier

	obj := testImageObject(t)
	payload, err := apps.EncodeMediaObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	m := &message.Message{
		Kind:      message.KindEvent,
		Sender:    "w1",
		Seq:       1,
		Timestamp: r.clk.Now(),
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppMedia),
			message.AttrObject: selector.S("rf-img-1"),
		},
		Body: payload,
	}
	frame, err := message.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// The wireless client's endpoint transmits to the BS over the RF
	// segment (core clients do this inside ShareImage; here we drive
	// the raw path).
	if err := wConn(t, r, w.ID()).Unicast("bs", message.WrapWhole(frame)); err != nil {
		t.Fatal(err)
	}

	// The wired session receives the full image via the viewer path.
	r.settle()
	if st, err := r.wired.Viewer().Stats("rf-img-1"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("wired client holds rf-img-1 as %+v (%v), want 16 packets accepted", st, err)
	}
	res, err := r.wired.Viewer().Render("rf-img-1")
	if err != nil || !res.Lossless {
		t.Errorf("relayed render: %v lossless=%v", err, res != nil && res.Lossless)
	}
	if st := r.bs.Stats(); st.ForwardFullImage != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestWirelessUnjoinedSenderIgnored: RF frames from a client that
// never joined are dropped.
func TestWirelessUnjoinedSenderIgnored(t *testing.T) {
	r := newRig(t, Config{})
	conn := attach(t, r.radioNet, "stranger")
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

// TestDegradedRFShare: the same RF path under interference degrades
// the forwarded modality.
func TestDegradedRFShare(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 50, 1)
	r.joinWireless(t, "w2", 50, 1)
	r.joinWireless(t, "w3", 50, 1)

	if a, _ := r.bs.Assess("w1"); a.Tier >= radio.TierImage {
		t.Fatalf("tier = %s, want degraded", a.Tier)
	}
	obj := testImageObject(t)
	payload, err := apps.EncodeMediaObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	m := &message.Message{
		Kind:      message.KindEvent,
		Sender:    "w1",
		Seq:       1,
		Timestamp: r.clk.Now(),
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppMedia),
			message.AttrObject: selector.S("rf-img-2"),
		},
		Body: payload,
	}
	frame, _ := message.Encode(m)
	if err := wConn(t, r, w1.ID()).Unicast("bs", message.WrapWhole(frame)); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if n := r.wired.Inbox().Len(); n != 1 {
		t.Fatalf("wired inbox holds %d items, want the degraded share", n)
	}
	got, _ := r.wired.Inbox().Latest()
	if got.Object.Kind == "image" {
		t.Errorf("degraded share forwarded as image")
	}
}

// wConn digs out a raw radio-segment connection for a client by
// attaching a sibling endpoint (clients own their conns privately).
func wConn(t *testing.T, r *rig, id string) interface {
	Unicast(string, []byte) error
} {
	t.Helper()
	return spoofConn{conn: attach(t, r.radioNet, id+"-raw")}
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
