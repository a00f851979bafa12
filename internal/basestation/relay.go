package basestation

// Downlink relay (session → wireless clients), uplink frame handling
// (radio segment → session) and the wired-side image reassembly path.
// Per-client delivery is expressed as dispatch pipelines/batches over
// the transmit adapters; membership state comes from the sharded
// registry; reassembly (announce metadata, parked early packets, the
// marker rule, idle eviction) is the image viewer's, as at a client.

import (
	"time"

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
	"adaptiveqos/internal/wavelet"
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
	frame, v, _ := bs.unwrap.Read(pkt.From, pkt.Data) // Read counts what it cannot read
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
		ids := dispatch.Candidates(bs.reg, m)
		fan := bs.rfTx.Fanout(m)
		bs.pool.Each(msgID, ids, func(id string) error {
			return bs.runTask(bs.eventPipe, dispatch.Task{MsgID: msgID, To: id, Msg: m, Fan: fan, Node: bs.id})
		})
	case m.Kind == message.KindEvent && app.Str() == apps.AppImageViewer:
		meta, err := apps.DecodeImageMeta(m.Body)
		if err != nil {
			return
		}
		bs.collect.AnnounceAt(meta, bs.clk.Now())
		bs.maybeDeliver(m.Sender, meta.Object, m.Selector)
	case m.Kind == message.KindData && app.Str() == apps.AppImageViewer:
		object, ok1 := m.Attr(message.AttrObject)
		level, _ := m.Attr(message.AttrLevel)
		chunk, ok2 := level.Whole()
		pkt, err := rtp.Unmarshal(m.Body)
		if !ok1 || !ok2 || err != nil {
			metrics.C(metrics.CtrDecodeErrors).Inc() // only an unreadable frame pays the lookup
			return
		}
		if joined, _ := bs.collect.AddChunk(object.Str(), int(chunk), pkt, bs.clk.Now()); joined {
			bs.maybeDeliver(m.Sender, object.Str(), m.Selector)
		}
	}
}

// maybeDeliver forwards a wired-side image to the wireless clients
// once every packet has been collected — all that were announced, or
// all up to the marker of a sender that cut its share short — then
// forgets the collection: completed transfers must not accumulate in
// the broker.
func (bs *BaseStation) maybeDeliver(sender, object, sel string) {
	st, err := bs.collect.Stats(object)
	if err != nil || st.PacketsAccepted != st.TotalPackets {
		return
	}
	bs.deliverCollectedImage(sender, object, sel)
	bs.collect.Forget(object)
}

// deliverCollectedImage sends a collected wired-side image to each
// wireless client at its own tier.  The collected stream is the image
// tier as it stands (DESIGN.md §17): once its headers pass the coder's
// checks it is re-split and relayed, not decoded and coded again, and
// the sketch tier is the sketch its announce carried.
func (bs *BaseStation) deliverCollectedImage(sender, object, sel string) {
	meta, _ := bs.collect.Meta(object)
	stream, err := bs.collect.AcceptedStream(object)
	if err != nil {
		return
	}
	info, err := wavelet.Inspect(stream)
	if err != nil {
		return
	}
	obj := &media.Object{
		Kind:        media.KindImage,
		Format:      media.FormatEZW,
		Data:        stream,
		Description: meta.Description,
		Width:       info.W,
		Height:      info.H,
		Sketch:      meta.Sketch,
	}
	if info.Color {
		obj.Format = media.FormatEZWColor
		if info.PlanesPresent < 3 {
			// A prefix that stops short of the chroma headers is a gray
			// image: relay the luma plane's own stream.
			if obj, err = media.ToGrayscale(obj); err != nil {
				return
			}
		}
	}
	// Nobody upstream to tell: a member that could not be served is in
	// the dispatch pool's counters and the flight recorder.
	_ = bs.relayShare(&renditions{bs: bs, sender: sender, object: object, sel: sel, obj: obj}, radio.TierImage, "")
}

// flatOf is the match stage's lookup: a member's flattened profile.
func (bs *BaseStation) flatOf(id string) (selector.Attributes, bool) {
	flat, _, ok := bs.reg.FlatSnapshot(id)
	return flat, ok
}

// relayShare serves a share to every member but skip, each at the
// richest tier that its SIR supports, its declared modality admits and
// limit allows: resolve the flattened profile, infer the tier, clamp,
// then frame + transmit that tier's rendition through forwardTiered.
func (bs *BaseStation) relayShare(rs *renditions, limit radio.Tier, skip string) error {
	pipe := dispatch.NewPipeline(
		dispatch.Match(bs.flatOf),
		bs.tierGate(radio.TierText),
		func(t *dispatch.Task) error {
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
			return bs.forwardTiered(rs, tier, bs.rfTx, t.To)
		},
	)
	return bs.pool.Each(0, bs.reg.IDs(), func(id string) error {
		if id == skip {
			return nil
		}
		return bs.runTask(pipe, dispatch.Task{To: id, Node: bs.id})
	})
}

// collectTTL bounds how long an incomplete wired-side collection, or
// packets parked for an announce that never came, may sit idle before
// sweep evicts them.
const collectTTL = time.Minute

var ctrCollectEvictions = metrics.C(metrics.CtrCollectEvictions)

// sweep evicts idle, never-completed collections, every quarter
// collectTTL: a wired sender crashing mid-transfer or a lossy segment
// eating tail packets must not leak reassembly buffers and announce
// metadata.
func (bs *BaseStation) sweep(now time.Time) {
	evicted := bs.collect.Sweep(now, collectTTL)
	ctrCollectEvictions.Add(uint64(len(evicted)))
	if obs.Enabled() {
		for _, object := range evicted {
			obs.Drop(0, obs.StageDeliver,
				"bs "+bs.id+": incomplete collection "+object+" expired")
		}
	}
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
