package basestation

// The per-share rendition set (DESIGN.md §17).  The SIR thresholds put
// every recipient of a share in one of three tiers, so adapting the
// share costs one derivation per occupied tier however many clients
// sit in it, RTP framing included; what remains per client is one
// message, rewritten around each frame (sequence number, timestamp),
// and each frame's envelope and unicast.

import (
	"sync"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
)

// rendition is one tier's form of a share, ready to be framed.
type rendition struct {
	attrs   []message.Attr // name-sorted, as message.SetAttrs takes them
	payload []byte
	// packets, on a progressive image's full tier, is the split stream
	// that follows the announce (attrs + payload), each packet already
	// RTP-framed; packetAttrs[i] travels with packets[i].  The frames
	// and their attributes are frozen: every member of the tier is
	// handed the same ones.
	packets     [][]byte
	packetAttrs [][]message.Attr
	err         error
}

// renditions holds one share's three tier renditions.  Each is derived
// on first use and at most once: the dispatch pool asks from several
// shard goroutines, and a tier nobody sits in is never built.
type renditions struct {
	bs                  *BaseStation
	sender, object, sel string
	// obj is the share as received (uplink) or, for a wired share, as
	// its announce describes it: no stream, only what the sketch and
	// text tiers are drawn from.
	obj *media.Object

	imageOnce, sketchOnce, textOnce sync.Once
	image, sketch, text             rendition
}

// reset readies rs for another wired share, the lower tiers' buffers
// kept for their next renditions (a wired share's image tier is its
// sender's frames).  No tier may be being derived.
func (rs *renditions) reset(sender, object, sel string, obj *media.Object) {
	*rs = renditions{bs: rs.bs, sender: sender, object: object, sel: sel, obj: obj,
		sketch: rs.sketch.emptied(),
		text:   rs.text.emptied()}
}

// emptied is r's buffers, emptied for the next rendition of its tier.
func (r *rendition) emptied() rendition {
	return rendition{attrs: r.attrs[:0], payload: r.payload[:0]}
}

// mediaEvent renders o into r as a single media-inbox event, in r's
// buffers.
func (rs *renditions) mediaEvent(r *rendition, o *media.Object) {
	r.payload, r.err = apps.AppendMediaObject(r.payload[:0], o)
	r.attrs = shareAttrs(r.attrs[:0], o, apps.AppMedia, rs.object)
}

// shareAttrs appends to dst the attributes a share travels with, in
// name order as message.SetAttrs takes them: the app that takes it, o's
// descriptive attributes and the object's name.
func shareAttrs(dst []message.Attr, o *media.Object, app, object string) []message.Attr {
	dst = append(dst, message.Attr{Name: message.AttrApp, Value: selector.S(app)})
	named, placed := message.Attr{Name: message.AttrObject, Value: selector.S(object)}, false
	o.EachAttr(func(name string, v selector.Value) {
		if !placed && name > named.Name {
			dst, placed = append(dst, named), true
		}
		dst = append(dst, message.Attr{Name: name, Value: v})
	})
	if !placed {
		dst = append(dst, named)
	}
	return dst
}

// imageTier is an uplinked share's full tier: a progressive image goes
// as announce + packets so receivers can still apply their own packet
// budgets; any other object goes as it is.  (A wired share's full tier
// is the share as its sender sent it: relayAnnounce, relayFrame.)
func (rs *renditions) imageTier() *rendition {
	rs.imageOnce.Do(func() {
		meta, packets, err := apps.ShareImage(rs.object, rs.obj, apps.SharePackets)
		if err != nil {
			rs.mediaEvent(&rs.image, rs.obj)
			return
		}
		app, object := selector.S(apps.AppImageViewer), selector.S(rs.object)
		rs.image = rendition{
			attrs:       shareAttrs(nil, rs.obj, apps.AppImageViewer, rs.object),
			payload:     apps.EncodeImageMeta(meta),
			packets:     rs.frame(packets),
			packetAttrs: make([][]message.Attr, len(packets)),
		}
		attrs := make([][3]message.Attr, len(packets)) // every packet's, in one allocation
		for i := range attrs {
			attrs[i] = [3]message.Attr{
				{Name: message.AttrApp, Value: app},
				{Name: message.AttrLevel, Value: selector.N(float64(i))},
				{Name: message.AttrObject, Value: object},
			}
			rs.image.packetAttrs[i] = attrs[i][:]
		}
	})
	return &rs.image
}

// frame RTP-frames a share's packets once for every member of the tier,
// like core clients' data packets: one exact-size buffer holds them all,
// and each frame is a sub-slice whose capacity ends where it does, so
// no append can run into the next.  The share is one image and so one
// media instant, taken now: every packet of it carries the same
// timestamp, as RFC 3550 gives every packet of one video frame.
func (rs *renditions) frame(packets [][]byte) [][]byte {
	n := 0
	for _, p := range packets {
		n += rtp.HeaderLen + len(p)
	}
	buf := make([]byte, 0, n)
	frames := make([][]byte, len(packets))
	ts := uint32(rs.bs.clk.Now().UnixMilli())
	ssrc := rtp.SSRCOf(rs.bs.id + "/" + rs.object)
	for i, p := range packets {
		rp := rtp.Packet{
			PayloadType: 96,
			Marker:      i == len(packets)-1,
			Seq:         uint16(i),
			Timestamp:   ts,
			SSRC:        ssrc,
			Payload:     p,
		}
		lo := len(buf)
		buf = rp.AppendMarshal(buf)
		frames[i] = buf[lo:len(buf):len(buf)]
	}
	return frames
}

// transformed derives a lower tier into r through the configured
// registry, under one transform span per share.  The stock sketch path
// (media.ImageToSketch) takes the sketch the share carries: nothing is
// decoded.
func (rs *renditions) transformed(r *rendition, to media.Kind, onFail string) {
	sp := obs.StartStage(0, obs.StageTransform)
	o, err := rs.bs.cfg.registry.Transmode(rs.obj, to)
	if err != nil {
		if sp.Active() {
			sp.EndErr("bs " + rs.bs.id + ": " + rs.object + onFail)
		}
		r.err = err
		return
	}
	sp.End()
	rs.mediaEvent(r, o)
}

func (rs *renditions) sketchTier() *rendition {
	rs.sketchOnce.Do(func() {
		rs.transformed(&rs.sketch, media.KindSketch, " carries no valid sketch, falling back to text")
		if rs.sketch.err != nil {
			metrics.C(metrics.CtrSketchFallbacks).Inc()
		}
	})
	return &rs.sketch
}

func (rs *renditions) textTier() *rendition {
	rs.textOnce.Do(func() {
		rs.transformed(&rs.text, media.KindText, " text transform failed")
	})
	return &rs.text
}

// forwardTiered sends the share's rendition for the given tier — the
// announce or media event, then each RTP frame — through the transmit
// adapter (to is ignored by the multicast adapter).  It takes one
// message per call from the station's pool and rewrites it for each
// frame: the adapter keeps none of it once Deliver returns.
func (bs *BaseStation) forwardTiered(rs *renditions, tier radio.Tier, tx dispatch.Deliverer, to string) error {
	var r *rendition
	switch tier {
	case radio.TierImage:
		r = rs.imageTier()
	case radio.TierSketch:
		if r = rs.sketchTier(); r.err != nil {
			// Non-image content, or an image that carries no sketch.
			r = rs.textTier()
		}
	case radio.TierText:
		r = rs.textTier()
	default:
		return ErrNoService
	}
	if r.err != nil {
		return r.err
	}
	m := bs.msgs.Get().(*message.Message)
	defer bs.putMessage(m)
	bs.stamp(m, message.KindEvent, rs.sender, to, rs.sel, r.attrs, r.payload)
	if tier != radio.TierImage {
		// The relayed message is minted here, so the transform hop can
		// only be attributed once its trace identity exists.
		obs.AppendHop(obs.MsgID(m.Sender, m.Seq), bs.id, obs.StageTransform)
	}
	if err := tx.Deliver(to, m); err != nil {
		return err
	}
	m.Kind = message.KindData
	for i, p := range r.packets {
		m.Seq, m.Timestamp, m.Body = bs.nextSeq(rs.sender, to), bs.clk.Now(), p
		m.SetAttrs(r.packetAttrs[i])
		if err := tx.Deliver(to, m); err != nil {
			return err
		}
	}
	return nil
}
