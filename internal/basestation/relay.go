package basestation

// Downlink relay (session → wireless clients) and uplink frame
// handling (radio segment → session).  Per-client delivery is expressed
// as dispatch pipelines/batches over the transmit adapters; membership
// state comes from the sharded registry.  A wired image share is relayed
// frame by frame as it passes: the station collects nothing.

import (
	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// tierGate returns the infer-tier pipeline stage: assess the client
// and skip it (with a recorded drop) when its service tier is below
// min.  The assessed tier is left on the task for later stages.
func (bs *BaseStation) tierGate(min radio.Tier) dispatch.Stage {
	return func(t *dispatch.Task) error {
		a, err := bs.Assess(t.To)
		if err != nil || a.Tier < min {
			if obs.Enabled() {
				obs.Drop(t.MsgID, obs.StageDeliver, "bs "+bs.id+": "+t.To+" below "+min.String()+" tier")
			}
			return dispatch.ErrSkip
		}
		t.Tier = int(a.Tier)
		return nil
	}
}

// runTask runs one candidate's task through pipe.  A Task escapes to
// the heap through the pipeline's indirect stage calls, and there is
// one per candidate per relayed message, so it comes from a pool; no
// stage keeps the pointer past its return.
func (bs *BaseStation) runTask(pipe dispatch.Pipeline, task dispatch.Task) error {
	t := bs.tasks.Get().(*dispatch.Task)
	*t = task
	err := pipe.Run(t)
	*t = dispatch.Task{}
	bs.tasks.Put(t)
	return err
}

// --- Downlink (session → wireless clients) ---

// handleWired relays wired-session traffic to the wireless clients,
// degrading content to each client's tier.
func (bs *BaseStation) handleWired(pkt transport.Packet) {
	// A fragmented frame is reassembled into the segment's scratch: all
	// that is relayed of it is copied out (enveloped, re-stamped,
	// rendered) before the relay returns, Pool.Each waiting for every
	// job it queues.
	frame, v, _ := bs.unwrap.ReadInto(pkt.From, pkt.Data, &bs.wiredFrame) // ReadInto counts what it cannot read
	if frame == nil || string(v.Sender()) == bs.id {
		return
	}
	m := &bs.wiredMsg
	v.MessageInto(m, &bs.wiredIntern)
	app, _ := m.Attr(message.AttrApp)
	switch {
	case m.Kind == message.KindEvent && (app.Str() == apps.AppChat || app.Str() == apps.AppWhiteboard || app.Str() == apps.AppMedia):
		// Light events run the relay pipeline per client: candidates
		// come index-first from the registry's inverted predicate
		// index (DESIGN.md §12), then each candidate's pipeline
		// re-verifies the cached compiled selector against the
		// memoized flattened profile, gates on the text tier and
		// transmits.  The dispatch pool fans the candidate set across
		// its shards.  What is transmitted is the same for every
		// client, so the event is enveloped once, by the first client
		// to get that far.
		msgID := obs.MsgID(m.Sender, m.Seq)
		ids := dispatch.Candidates(bs.reg, m, nil)
		fan := bs.rfTx.Fanout(m)
		bs.pool.Each(msgID, ids, func(id string) error {
			return bs.runTask(bs.eventPipe, dispatch.Task{MsgID: msgID, To: id, Msg: m, Fan: fan, Node: bs.id})
		})
	case m.Kind == message.KindEvent && app.Str() == apps.AppImageViewer:
		bs.relayAnnounce(m)
	case m.Kind == message.KindData && app.Str() == apps.AppImageViewer:
		bs.relayFrame(m)
	}
}

// relayAnnounce relays a wired image share's announce as it passes
// (DESIGN.md §17).  A member served at the image tier gets the announce
// as it was sent, and relayFrame gives it the data frames that follow;
// any other member gets the share's sketch or text rendition, drawn
// from the announce alone.  The station keeps nothing of the share: the
// object, the rendition set, the fan-out and the share relay are the
// wired segment's, rewritten by each announce.
func (bs *BaseStation) relayAnnounce(m *message.Message) {
	meta, err := apps.DecodeImageMeta(m.Body)
	if err != nil {
		return
	}
	// The lower tiers need the description, the carried sketch and the
	// size; an announce always heads a progressive image, and which
	// coding its stream uses is the image tier's business.
	bs.annObj = media.Object{Kind: media.KindImage, Format: media.FormatEZW, Description: meta.Description,
		Width: meta.Width, Height: meta.Height, Sketch: meta.Sketch}
	bs.annRS.reset(m.Sender, meta.Object, m.Selector, &bs.annObj)
	bs.annFan.Reset(m)
	// Nobody upstream to tell: a member that could not be served is in
	// the dispatch pool's counters and the flight recorder.
	_ = bs.annRelay.relay(dispatch.Task{MsgID: obs.MsgID(m.Sender, m.Seq), Msg: m, Fan: bs.annFan, Node: bs.id},
		&bs.annRS, radio.TierImage, "")
}

// relayFrame relays one data frame of a wired image share to the
// members served at the image tier, the tier relayAnnounce gave its
// announce to.  The frame's RTP header is stamped again into the
// station's scratch — the share's SSRC, its level as the seq — so each
// share is one RTP stream at the member, as an uplinked one is.  What a
// member costs here is a profile lookup, a selector match, an
// assessment and a send: less than handing it to a dispatch shard, so
// the candidates are served inline, each after the announce's batch has
// completed.  The scratch, the fan-out, the candidate list and the
// pipeline are the station's, kept across frames: a frame costs its
// datagram.
func (bs *BaseStation) relayFrame(m *message.Message) {
	object, ok1 := m.Attr(message.AttrObject)
	level, _ := m.Attr(message.AttrLevel)
	idx, ok2 := level.Whole()
	pkt, err := rtp.Unmarshal(m.Body)
	if !ok1 || !ok2 || err != nil {
		metrics.C(metrics.CtrDecodeErrors).Inc() // only an unreadable frame pays the lookup
		return
	}
	pkt.SSRC, pkt.Seq = rtp.SSRCOf(bs.id+"/"+object.Str()), uint16(idx)
	bs.frameBuf = pkt.AppendMarshal(bs.frameBuf[:0])
	m.Body = bs.frameBuf
	bs.frameFan.Reset(m)
	task := dispatch.Task{MsgID: obs.MsgID(m.Sender, m.Seq), Msg: m, Fan: bs.frameFan, Node: bs.id}
	bs.frameIDs = dispatch.Candidates(bs.reg, m, bs.frameIDs[:0])
	for _, id := range bs.frameIDs {
		task.To = id
		_ = bs.runTask(bs.framePipe, task) // a member that could not be served is in the flight recorder
	}
}

// flatOf is the match stage's lookup: a member's flattened profile.
func (bs *BaseStation) flatOf(id string) (selector.Attributes, bool) {
	flat, _, ok := bs.reg.FlatSnapshot(id)
	return flat, ok
}

// servedTier is the tier a share is served to the task's member at: the
// richest that its SIR supports (tierGate left it on the task), its
// declared modality admits and limit allows.
func servedTier(t *dispatch.Task, limit radio.Tier) radio.Tier {
	tier := min(radio.Tier(t.Tier), limit)
	// Respect the client's preferred modality when declared
	// (e.g. a battery-saving client that switched to text mode).
	if pref, ok := t.Flat[profile.SectionPreference+".modality"]; ok {
		switch media.Kind(pref.Str()) {
		case media.KindText:
			tier = radio.TierText
		case media.KindSketch:
			tier = min(tier, radio.TierSketch)
		}
	}
	return tier
}

// imageTierOnly is relayFrame's last stage: transmit the frame to a
// member served at the image tier, skip any other.
func imageTierOnly(t *dispatch.Task) error {
	if servedTier(t, radio.TierImage) < radio.TierImage {
		return dispatch.ErrSkip
	}
	return dispatch.Transmit(t)
}

// shareRelay serves a share to every candidate of share.Msg's selector
// but skip, each at servedTier: match, infer the tier, clamp, then send
// the image tier share.Fan when it is set (a wired share's announce, as
// it was sent) and every other tier that tier's rendition through
// forwardTiered.  Its pipeline, the function the dispatch pool runs and
// its candidate list are built once, so the wired segment keeps one
// relay for all its shares; the dispatch shards read the share it is
// serving while relay waits for them.
type shareRelay struct {
	bs    *BaseStation
	pipe  dispatch.Pipeline
	each  func(id string) error
	ids   []string
	share dispatch.Task
	rs    *renditions
	limit radio.Tier
	skip  string
}

func (bs *BaseStation) newShareRelay() *shareRelay {
	sr := &shareRelay{bs: bs}
	sr.pipe = dispatch.NewPipeline(dispatch.Match(bs.flatOf), bs.tierGate(radio.TierText), sr.serve)
	sr.each = sr.member
	return sr
}

// relay serves one share, no richer than limit.  One relay runs on sr
// at a time.
func (sr *shareRelay) relay(share dispatch.Task, rs *renditions, limit radio.Tier, skip string) error {
	sr.share, sr.rs, sr.limit, sr.skip = share, rs, limit, skip
	sr.ids = dispatch.Candidates(sr.bs.reg, share.Msg, sr.ids[:0])
	err := sr.bs.pool.Each(share.MsgID, sr.ids, sr.each)
	sr.share, sr.rs = dispatch.Task{}, nil
	return err
}

func (sr *shareRelay) member(id string) error {
	if id == sr.skip {
		return nil
	}
	t := sr.share
	t.To = id
	return sr.bs.runTask(sr.pipe, t)
}

func (sr *shareRelay) serve(t *dispatch.Task) error {
	tier := servedTier(t, sr.limit)
	if tier == radio.TierImage && t.Fan != nil {
		return dispatch.Transmit(t)
	}
	return sr.bs.forwardTiered(sr.rs, tier, sr.bs.rfTx, t.To)
}

// --- Uplink frame handling (wireless segment → relays) ---

// handleWireless takes uplink frames from wireless clients over the
// radio segment: clients transmit framework messages; the BS relays
// them as if the client had called UplinkEvent/UplinkShare.
func (bs *BaseStation) handleWireless(pkt transport.Packet) {
	frame, v, _ := bs.unwrap.Read("rf:"+pkt.From, pkt.Data) // counted inside Read
	if frame == nil {
		return
	}
	m := &bs.rfMsg
	v.MessageInto(m, &bs.rfIntern)
	if !bs.reg.Has(m.Sender) {
		return // not joined: ignore
	}
	app, _ := m.Attr(message.AttrApp)
	switch {
	case m.Kind == message.KindProfile:
		bs.applyProfileUpdate(m)
	case m.Kind == message.KindEvent && app.Str() == apps.AppMedia:
		obj, err := apps.DecodeMediaObject(m.Body)
		if err != nil {
			return
		}
		object, _ := m.Attr(message.AttrObject)
		bs.UplinkShare(m.Sender, object.Str(), m.Selector, obj)
	case m.Kind == message.KindEvent:
		bs.UplinkEvent(m.Sender, app.Str(), m.Selector, m.Body)
	}
}

// applyProfileUpdate folds a client's announced interests and
// preferences into its stored profile; the paper's "change in
// preference" path (e.g. a client switching to text mode to conserve
// battery).
func (bs *BaseStation) applyProfileUpdate(m *message.Message) {
	intPrefix := profile.SectionInterest + "."
	prefPrefix := profile.SectionPreference + "."
	bs.reg.Update(m.Sender, func(p *profile.Profile) {
		m.EachAttr(func(k string, v selector.Value) {
			switch {
			case len(k) > len(intPrefix) && k[:len(intPrefix)] == intPrefix:
				p.Interests[k[len(intPrefix):]] = v
			case len(k) > len(prefPrefix) && k[:len(prefPrefix)] == prefPrefix:
				p.Preferences[k[len(prefPrefix):]] = v
			}
		})
	})
}
