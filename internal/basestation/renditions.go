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
	attrs   selector.Attributes
	payload []byte
	// packets, on a progressive image's full tier, is the split stream
	// that follows the announce (attrs + payload), each packet already
	// RTP-framed; packetAttrs[i] travels with packets[i].  The frames
	// are frozen: every member of the tier is handed the same bytes.
	packets     [][]byte
	packetAttrs []selector.Attributes
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

// mediaEvent renders o as a single media-inbox event.
func (rs *renditions) mediaEvent(o *media.Object) rendition {
	payload, err := apps.EncodeMediaObject(o)
	return rendition{payload: payload, err: err, attrs: o.Attrs().Merge(selector.Attributes{
		message.AttrApp:    selector.S(apps.AppMedia),
		message.AttrObject: selector.S(rs.object),
	})}
}

// imageTier is an uplinked share's full tier: a progressive image goes
// as announce + packets so receivers can still apply their own packet
// budgets; any other object goes as it is.  (A wired share's full tier
// is the share as its sender sent it: relayAnnounce, relayFrame.)
func (rs *renditions) imageTier() *rendition {
	rs.imageOnce.Do(func() {
		meta, packets, err := apps.ShareImage(rs.object, rs.obj, apps.SharePackets)
		if err != nil {
			rs.image = rs.mediaEvent(rs.obj)
			return
		}
		viewer := selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S(rs.object),
		}
		rs.image = rendition{
			attrs:       rs.obj.Attrs().Merge(viewer),
			payload:     apps.EncodeImageMeta(meta),
			packets:     rs.frame(packets),
			packetAttrs: make([]selector.Attributes, len(packets)),
		}
		for i := range packets {
			rs.image.packetAttrs[i] = viewer.Merge(selector.Attributes{message.AttrLevel: selector.N(float64(i))})
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

// transformed derives a lower tier through the configured registry,
// under one transform span per share.  The stock sketch path
// (media.ImageToSketch) takes the sketch the share carries: nothing is
// decoded.
func (rs *renditions) transformed(to media.Kind, onFail string) rendition {
	sp := obs.StartStage(0, obs.StageTransform)
	o, err := rs.bs.cfg.registry.Transmode(rs.obj, to)
	if err != nil {
		if sp.Active() {
			sp.EndErr("bs " + rs.bs.id + ": " + rs.object + onFail)
		}
		return rendition{err: err}
	}
	sp.End()
	return rs.mediaEvent(o)
}

func (rs *renditions) sketchTier() *rendition {
	rs.sketchOnce.Do(func() {
		rs.sketch = rs.transformed(media.KindSketch, " carries no valid sketch, falling back to text")
		if rs.sketch.err != nil {
			metrics.C(metrics.CtrSketchFallbacks).Inc()
		}
	})
	return &rs.sketch
}

func (rs *renditions) textTier() *rendition {
	rs.textOnce.Do(func() {
		rs.text = rs.transformed(media.KindText, " text transform failed")
	})
	return &rs.text
}

// forwardTiered sends the share's rendition for the given tier — the
// announce or media event, then each RTP frame — through the transmit
// adapter (to is ignored by the multicast adapter).  It mints one
// message per call and rewrites it for each frame: the adapter keeps
// none of it once Deliver returns.
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
	m := bs.newMessage(message.KindEvent, rs.sender, to, rs.sel, r.attrs, r.payload)
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
		m.Seq, m.Timestamp, m.Attrs, m.Body = bs.nextSeq(rs.sender, to), bs.clk.Now(), r.packetAttrs[i], p
		if err := tx.Deliver(to, m); err != nil {
			return err
		}
	}
	return nil
}
