package basestation

import (
	"fmt"
	"math"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// wiredInjector crafts raw wired-session frames (announce / data) so
// tests can drive partial image transfers the core client API would
// always complete.
type wiredInjector struct {
	t    *testing.T
	clk  *clock.Virtual
	conn transport.Conn
	seq  uint32
}

func newWiredInjector(t *testing.T, r *rig, id string) *wiredInjector {
	t.Helper()
	return &wiredInjector{t: t, clk: r.clk, conn: attach(t, r.wiredNet, id)}
}

func (in *wiredInjector) send(m *message.Message) {
	in.t.Helper()
	in.seq++
	m.Sender = in.conn.ID()
	m.Seq = in.seq
	m.Timestamp = in.clk.Now()
	frame, err := message.Encode(m)
	if err != nil {
		in.t.Fatal(err)
	}
	if err := in.conn.Multicast(message.WrapWhole(frame)); err != nil {
		in.t.Fatal(err)
	}
}

func (in *wiredInjector) announce(object string, meta apps.ImageMeta) {
	in.send(&message.Message{
		Kind: message.KindEvent,
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S(object),
		},
		Body: apps.EncodeImageMeta(meta),
	})
}

func (in *wiredInjector) data(object string, idx int, chunk []byte) {
	in.dataMarked(object, idx, chunk, false)
}

// dataMarked sends a data packet, with the RTP marker set when the
// sender stops its share there.
func (in *wiredInjector) dataMarked(object string, idx int, chunk []byte, marker bool) {
	rp := rtp.Packet{
		PayloadType: 96,
		Marker:      marker,
		Seq:         uint16(idx),
		SSRC:        1,
		Payload:     chunk,
	}
	in.send(&message.Message{
		Kind: message.KindData,
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S(object),
			message.AttrLevel:  selector.N(float64(idx)),
		},
		Body: rp.Marshal(),
	})
}

// TestReassemblyStateReleasedAfterDelivery: the station keeps nothing
// of a share it relays, so a share sent again under the same name, once
// the member has forgotten the first, reaches the member whole again
// rather than meeting what is left of the first.
func TestReassemblyStateReleasedAfterDelivery(t *testing.T) {
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 20, 1)
	obj := testImageObject(t)
	for round := 1; round <= 2; round++ {
		if err := r.wired.ShareImage("rel-1", obj, ""); err != nil {
			t.Fatal(err)
		}
		r.settle()
		if !holdsFullImage(w, "rel-1") {
			t.Fatalf("round %d: the wireless client does not hold the share whole", round)
		}
		w.Viewer().Forget("rel-1")
	}
}

// TestDuplicatedAnnounceKeepsCollection: the wired segment delivers the
// announce a second time halfway through the packets, and every packet
// twice, and the station relays each copy as it passes.  The second
// announce is the first one again: the member's collection goes on and
// completes, instead of starting over with the first half gone.
func TestDuplicatedAnnounceKeepsCollection(t *testing.T) {
	r := newRig(t, Config{Thresholds: tierThresholds})
	w := r.joinWireless(t, "w1", tierDistances[radio.TierImage][0], 1)
	in := newWiredInjector(t, r, "pub")

	im := wavelet.Medical(64, 64, 1)
	obj, err := media.EncodeImage(im, "field photo")
	if err != nil {
		t.Fatal(err)
	}
	meta, packets, err := apps.ShareImage("twice", obj, 8)
	if err != nil {
		t.Fatal(err)
	}
	in.announce(meta.Object, meta)
	for i, p := range packets {
		if i == len(packets)/2 {
			in.announce(meta.Object, meta)
		}
		in.data(meta.Object, i, p)
		in.data(meta.Object, i, p)
	}
	r.settle()
	if st, err := w.Viewer().Stats("twice"); err != nil || st.PacketsAccepted != st.TotalPackets {
		t.Fatalf("the member holds %+v (%v), want the whole image", st, err)
	}
	if res, err := w.Viewer().Render("twice"); err != nil || !res.Lossless || !res.Image.Equal(im) {
		t.Errorf("the member renders something other than the shared image (err %v)", err)
	}
}

// TestReassemblyJoinLeaveMidTransfer: clients joining and leaving while
// shares pass through the station must not wedge delivery.  A 1 Mbit/s
// link into the station spreads the shares' frames over virtual time,
// so the churn lands between them; once it is over, a member seated
// throughout is served the next share whole.
func TestReassemblyJoinLeaveMidTransfer(t *testing.T) {
	r := newRig(t, Config{})
	w1 := r.joinWireless(t, "w1", 30, 1)
	r.wiredNet.SetLink("wired-1", "bs", transport.Link{BandwidthBps: 1e6})
	const shares = 4
	for i := 0; i < shares; i++ {
		if err := r.wired.ShareImage(fmt.Sprintf("churn-%d", i), testImageObject(t), ""); err != nil {
			t.Fatal(err)
		}
	}

	// Churn membership while the packets stream through the broker.
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("mid-%d", i)
		r.joinWireless(t, id, 40+float64(10*i), 1)
		if i%2 == 0 {
			if err := r.bs.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
		r.clk.Advance(2 * time.Millisecond)
	}
	if holdsFullImage(w1, fmt.Sprintf("churn-%d", shares-1)) {
		t.Fatal("no share was in flight during the churn")
	}
	for i := 1; i < 6; i += 2 {
		if err := r.bs.Leave(fmt.Sprintf("mid-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.settle()
	if err := r.wired.ShareImage("after-churn", testImageObject(t), ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !holdsFullImage(w1, "after-churn") {
		t.Error("after the churn, the member seated throughout does not hold the next share")
	}
}

// TestCollectedLevelMustBeWhole: a wired-side data packet whose level
// is not a whole number counts as a decode error and is relayed to no
// member: a level of 0.5 must not reach the cell as packet 0.
func TestCollectedLevelMustBeWhole(t *testing.T) {
	c := newBareCell(t, 0, 1)
	meta, packets, err := apps.ShareImage("scan", testImageObject(t), apps.SharePackets)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint32(0)
	send := func(kind message.Kind, attrs selector.Attributes, body []byte) {
		seq++
		attrs[message.AttrApp] = selector.S(apps.AppImageViewer)
		attrs[message.AttrObject] = selector.S("scan")
		frame, err := message.Encode(&message.Message{Kind: kind, Sender: "pub", Seq: seq, Attrs: attrs, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		c.bs.handleWired(transport.Packet{From: "pub", Data: message.WrapWhole(frame)})
	}
	send(message.KindEvent, selector.Attributes{}, apps.EncodeImageMeta(meta))
	errs := metrics.C(metrics.CtrDecodeErrors)
	rp := rtp.Packet{PayloadType: 96, SSRC: 1, Payload: packets[0]}
	for _, level := range []float64{0.5, 1.5, -1, math.NaN(), math.Inf(1), 1e300} {
		before := errs.Load()
		send(message.KindData, selector.Attributes{message.AttrLevel: selector.N(level)}, rp.Marshal())
		if got := errs.Load(); got != before+1 {
			t.Errorf("level %v: decode errors %d → %d, want one more", level, before, got)
		}
	}
	send(message.KindData, selector.Attributes{message.AttrLevel: selector.N(0)}, rp.Marshal())
	c.settle()
	if n := len(c.members[0].Recv()); n != 2 {
		t.Errorf("the member was sent %d datagrams, want the announce and the one packet with a whole level", n)
	}
}
