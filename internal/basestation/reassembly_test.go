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

// TestReassemblyStateReleasedAfterDelivery: once a wired-side image is
// fully collected and forwarded, the broker must drop its reassembly
// state so long sessions do not accumulate per-image memory.
func TestReassemblyStateReleasedAfterDelivery(t *testing.T) {
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 20, 1)

	obj := testImageObject(t)
	if err := r.wired.ShareImage("rel-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if !holdsFullImage(w, "rel-1") && w.Inbox().Len() == 0 {
		t.Error("nothing reached the wireless client")
	}
	if got := r.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("the station still collects %v", got)
	}
}

// TestDuplicatedAnnounceKeepsCollection: the wired segment delivers the
// announce a second time halfway through the packets, and every packet
// twice.  The second announce is the first one again: the collection
// goes on, completes and is relayed, instead of starting over with the
// first half gone and waiting out the TTL.
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
	if got := r.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("the station still collects %v", got)
	}
}

// pastTTL advances the rig's clock until every collection started by
// now has come due at a sweep.
func (r *rig) pastTTL() { r.clk.Advance(collectTTL + collectTTL/4) }

// TestReassemblySweepEvictsIncomplete: an announced transfer whose
// sender disappears mid-stream is TTL-evicted — viewer buffers and
// parked orphan packets all released, and counted.
func TestReassemblySweepEvictsIncomplete(t *testing.T) {
	r := newRig(t, Config{})
	in := newWiredInjector(t, r, "crasher")
	evictions := ctrCollectEvictions.Load()

	obj := testImageObject(t)
	meta, packets, err := apps.ShareImage("halfway", obj, 8)
	if err != nil {
		t.Fatal(err)
	}
	in.announce("halfway", meta)
	in.data("halfway", 0, packets[0]) // ... and the sender crashes here

	// An orphan data packet whose announce never arrives parks in the
	// viewer and must age out the same way.
	in.data("orphan", 0, packets[1])

	// A third collection, which never completes either.
	sentinel := meta
	sentinel.Object = "sentinel"
	in.announce(sentinel.Object, sentinel)
	r.settle()
	if st, err := r.bs.collect.Stats("halfway"); err != nil || st.PacketsAccepted != 1 {
		t.Fatalf("partial transfer: %+v (%v), want one packet accepted", st, err)
	}
	if _, ok := r.bs.collect.Meta("sentinel"); !ok {
		t.Fatal("the sentinel's announce was not collected")
	}
	if got := ctrCollectEvictions.Load(); got != evictions {
		t.Fatalf("%d evictions before the TTL", got-evictions)
	}
	r.pastTTL()
	if got := ctrCollectEvictions.Load(); got != evictions+3 {
		t.Errorf("%d evictions past the TTL, want 3", got-evictions)
	}
	if got := r.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("viewer still tracks expired transfers: %v", got)
	}

	// The broker still accepts a fresh, complete transfer of the same
	// object after the eviction.
	meta2, packets2, err := apps.ShareImage("halfway", obj, 8)
	if err != nil {
		t.Fatal(err)
	}
	in.announce("halfway", meta2)
	for i, p := range packets2 {
		in.data("halfway", i, p)
	}
	r.settle()
	if got := r.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("the retransfer left %v collected", got)
	}
	if got := ctrCollectEvictions.Load(); got != evictions+3 {
		t.Errorf("a completed transfer counted as an eviction: %d", got-evictions)
	}
}

// TestStationAgesCollectionsOnItsNetworksClock: a station seated on two
// DESNets with an empty Config stamps collections on the networks'
// virtual clock, the one its sweep polls on, so an incomplete
// collection is evicted once collectTTL passes.
func TestStationAgesCollectionsOnItsNetworksClock(t *testing.T) {
	clk, wiredNet, radioNet := newNets(t)
	bs := New("bs", attach(t, wiredNet, "bs"), attach(t, radioNet, "bs"), radio.NewChannel(radio.Params{}), Config{})
	t.Cleanup(func() { bs.Close() })
	in := &wiredInjector{t: t, clk: clk, conn: attach(t, wiredNet, "crasher")}
	meta, packets, err := apps.ShareImage("halfway", testImageObject(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	in.announce("halfway", meta)
	in.data("halfway", 0, packets[0])
	clk.Advance(time.Second)
	if got := bs.collect.Objects(); len(got) != 1 {
		t.Fatalf("collecting %v, want the one incomplete share", got)
	}
	clk.Advance(collectTTL + collectTTL/4)
	if got := bs.collect.Objects(); len(got) != 0 {
		t.Errorf("incomplete collection never expires: %v", got)
	}
}

// TestReassemblyJoinLeaveMidTransfer: clients joining and leaving while
// transfers are in flight must not wedge delivery or leak collection
// state.  A 1 Mbit/s link into the station spreads the shares' frames
// over virtual time, so the churn lands between them.
func TestReassemblyJoinLeaveMidTransfer(t *testing.T) {
	r := newRig(t, Config{})
	r.joinWireless(t, "w1", 30, 1)
	r.wiredNet.SetLink("wired-1", "bs", transport.Link{BandwidthBps: 1e6})
	for i := 0; i < 4; i++ {
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
	if len(r.bs.collect.Objects()) == 0 {
		t.Fatal("no share was in flight during the churn")
	}
	if err := r.bs.Leave("w1"); err != nil {
		t.Fatal(err)
	}
	r.pastTTL()
	if got := r.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("collections left after the churn: %v", got)
	}
}

// TestCollectedLevelMustBeWhole: a wired-side data packet whose level
// is not a whole number counts as a decode error and joins no
// collection: a level of 0.5 must not land as chunk 0.
func TestCollectedLevelMustBeWhole(t *testing.T) {
	bs := newBareCell(t, 1, 0, 1).bs
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
		bs.handleWired(transport.Packet{From: "pub", Data: message.WrapWhole(frame)})
	}
	send(message.KindEvent, selector.Attributes{}, apps.EncodeImageMeta(meta))
	errs := metrics.C(metrics.CtrDecodeErrors)
	for _, level := range []float64{0.5, 1.5, -1, math.NaN(), math.Inf(1), 1e300} {
		before := errs.Load()
		rp := rtp.Packet{PayloadType: 96, SSRC: 1, Payload: packets[0]}
		send(message.KindData, selector.Attributes{message.AttrLevel: selector.N(level)}, rp.Marshal())
		if got := errs.Load(); got != before+1 {
			t.Errorf("level %v: decode errors %d → %d, want one more", level, before, got)
		}
	}
	if st, err := bs.collect.Stats("scan"); err != nil || st.PacketsReceived != 0 {
		t.Fatalf("after bad levels: %+v %v, want nothing collected", st, err)
	}
}
