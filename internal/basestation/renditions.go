package basestation

// The per-share rendition set (DESIGN.md §17).  The SIR thresholds put
// every recipient of a share in one of three tiers.  The image tier is
// the share as its sender sent it (relayAnnounce, relayFrame); the
// sketch and text tiers are drawn from its announce, each at most once
// however many clients sit in it, and what remains per client is one
// message, stamped with its sequence number and timestamp, and its
// envelope and unicast.

import (
	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/radio"
)

// rendition is one lower tier's form of a share: a media-inbox event.
type rendition struct {
	attrs   []message.Attr // name-sorted, as message.SetAttrs takes them
	payload []byte
	err     error
}

// renditions holds one share's sketch and text renditions.  Each is
// derived on first use and at most once, so a tier nobody sits in is
// never built.
type renditions struct {
	bs                  *BaseStation
	sender, object, sel string
	// obj is the share as its announce describes it: no stream, only
	// what the sketch and text tiers are drawn from.
	obj *media.Object

	sketchBuilt, textBuilt bool
	sketch, text           rendition
}

// reset readies rs for another share, the tiers' buffers kept for their
// next renditions.
func (rs *renditions) reset(sender, object, sel string, obj *media.Object) {
	*rs = renditions{bs: rs.bs, sender: sender, object: object, sel: sel, obj: obj,
		sketch: rs.sketch.emptied(),
		text:   rs.text.emptied()}
}

// emptied is r's buffers, emptied for the next rendition of its tier.
func (r *rendition) emptied() rendition {
	return rendition{attrs: r.attrs[:0], payload: r.payload[:0]}
}

// transformed derives a lower tier into r, a single media-inbox event
// in r's buffers, through the configured registry, under one transform
// span per share.  The stock sketch path (media.ImageToSketch) takes
// the sketch the share carries: nothing is decoded.
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
	r.payload, r.err = apps.AppendMediaObject(r.payload[:0], o)
	r.attrs = apps.ShareAttrs(r.attrs[:0], apps.AppMedia, o, rs.object)
}

func (rs *renditions) sketchTier() *rendition {
	if !rs.sketchBuilt {
		rs.sketchBuilt = true
		rs.transformed(&rs.sketch, media.KindSketch, " carries no valid sketch, falling back to text")
		if rs.sketch.err != nil {
			metrics.C(metrics.CtrSketchFallbacks).Inc()
		}
	}
	return &rs.sketch
}

func (rs *renditions) textTier() *rendition {
	if !rs.textBuilt {
		rs.textBuilt = true
		rs.transformed(&rs.text, media.KindText, " text transform failed")
	}
	return &rs.text
}

// forwardTiered sends the segment's share's rendition for the given
// tier, sketch or text, through the transmit adapter (to is ignored by
// the multicast adapter), in the segment's kept message: the adapter
// keeps none of it once Deliver returns.
func (s *segment) forwardTiered(tier radio.Tier, tx dispatch.Deliverer, to string) error {
	bs, rs := s.bs, &s.rs
	var r *rendition
	switch tier {
	case radio.TierSketch:
		if r = rs.sketchTier(); r.err != nil {
			// An image that carries no sketch.
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
	m := &s.tiered
	bs.stamp(m, message.KindEvent, rs.sender, to, rs.sel, r.attrs, r.payload)
	// The relayed message is minted here, so the transform hop can only
	// be attributed once its trace identity exists.
	obs.AppendHop(obs.MsgID(m.Sender, m.Seq), bs.id, obs.StageTransform)
	return tx.Deliver(to, m)
}
