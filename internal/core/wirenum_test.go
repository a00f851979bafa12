package core

import (
	"math"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// badWholes are wire numbers no count or index may be read from: a
// fraction, a negative, NaN, infinities and values past 2^53.
var badWholes = []float64{1.5, 0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 1<<53 + 2}

// TestImageLevelMustBeWhole: a data packet whose level is not a whole
// number counts as a decode error and joins no share: a level of 0.5
// must not land as chunk 0.
func TestImageLevelMustBeWhole(t *testing.T) {
	obj, err := media.EncodeImage(wavelet.Medical(32, 32, 1), "scan")
	if err != nil {
		t.Fatal(err)
	}
	meta, packets, err := apps.ShareImage("scan", obj, apps.SharePackets)
	if err != nil {
		t.Fatal(err)
	}
	var env message.Enveloper
	seq := uint32(0)
	image := func(kind message.Kind, level selector.Value, body []byte) []byte {
		seq++
		attrs := selector.Attributes{message.AttrApp: selector.S(apps.AppImageViewer), message.AttrObject: selector.S("scan")}
		if kind == message.KindData {
			attrs[message.AttrLevel] = level
		}
		d, err := env.WrapMessage(&message.Message{Kind: kind, Sender: "peer", Seq: seq, Attrs: attrs, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		return d[0]
	}
	c := newVNet(t, 0).client("recv", Config{})
	c.HandlePacket(transport.Packet{From: "peer", Data: image(message.KindEvent, selector.Value{}, apps.EncodeImageMeta(meta))})

	snd := rtp.NewSender(rtp.SSRCOf("peer"), 96, 0)
	for _, level := range badWholes {
		before := c.Stats().DecodeErrors
		pkt := snd.Next(0, false, packets[0])
		c.HandlePacket(transport.Packet{From: "peer", Data: image(message.KindData, selector.N(level), pkt.Marshal())})
		if got := c.Stats().DecodeErrors; got != before+1 {
			t.Errorf("level %v: decode errors %d → %d, want one more", level, before, got)
		}
	}
	if st, err := c.Viewer().Stats("scan"); err != nil || st.PacketsAccepted != 0 {
		t.Fatalf("after bad levels: %+v %v, want nothing accepted", st, err)
	}
	pkt := snd.Next(0, false, packets[0])
	c.HandlePacket(transport.Packet{From: "peer", Data: image(message.KindData, selector.N(0), pkt.Marshal())})
	if st, _ := c.Viewer().Stats("scan"); st.PacketsAccepted != 1 {
		t.Errorf("level 0 accepted %d packets, want 1", st.PacketsAccepted)
	}
}
