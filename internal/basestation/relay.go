package basestation

// Downlink relay (session → wireless clients), uplink frame handling
// (radio segment → session) and the wired-side image reassembly path.
// Per-client delivery is expressed as dispatch pipelines/batches over
// the transmit adapters; membership state comes from the sharded
// registry; reassembly bookkeeping (announce metadata, parked early
// packets, TTL eviction) lives in the registry's collection tracker.

import (
	"errors"
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

// fnv32 hashes a string to an RTP SSRC.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

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

// parse unwraps one datagram from peer and validates the frame it
// completes, if it completes one.  What cannot be read is counted.
func (bs *BaseStation) parse(peer string, datagram []byte) (message.View, bool) {
	frame, err := bs.unwrap.Unwrap(peer, datagram)
	if err != nil {
		ctrDecodeErrors.Inc()
		return message.View{}, false
	}
	if frame == nil {
		return message.View{}, false // a fragment, its message still incomplete
	}
	v, err := message.Parse(frame)
	if err != nil {
		ctrDecodeErrors.Inc()
		return message.View{}, false
	}
	return v, true
}

var ctrDecodeErrors = metrics.C(metrics.CtrDecodeErrors)

// --- Downlink (session → wireless clients) ---

func (bs *BaseStation) wiredLoop() {
	defer close(bs.wiredDone)
	for pkt := range bs.wired.Recv() {
		bs.handleWired(pkt)
	}
}

// handleWired relays wired-session traffic to the wireless clients,
// degrading content to each client's tier.
func (bs *BaseStation) handleWired(pkt transport.Packet) {
	v, ok := bs.parse(pkt.From, pkt.Data)
	if !ok || string(v.Sender()) == bs.id {
		return
	}
	m := v.Message(&bs.wiredIntern)
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
		bs.collect.Announce(meta)
		parked := bs.collections.Announce(meta.Object, meta, bs.clk.Now())
		for _, p := range parked {
			bs.collectPacket(meta.Object, p.Idx, p.Data)
		}
		bs.maybeDeliver(m.Sender, meta.Object, m.Selector)
	case m.Kind == message.KindData && app.Str() == apps.AppImageViewer:
		object, ok1 := m.Attr(message.AttrObject)
		level, ok2 := m.Attr(message.AttrLevel)
		if !ok1 || !ok2 {
			return
		}
		if err := bs.collectPacket(object.Str(), int(level.Num()), m.Body); err != nil {
			if errors.Is(err, apps.ErrUnknownImage) {
				// The packet overtook its announce; park it (bounded),
				// RTP header and all, so its marker survives the wait.
				bs.collections.Park(object.Str(), int(level.Num()), m.Body, bs.clk.Now())
			}
			return
		}
		bs.collections.Touch(object.Str(), bs.clk.Now())
		bs.maybeDeliver(m.Sender, object.Str(), m.Selector)
	}
}

// collectPacket adds one RTP-framed chunk to its collection.  A sender
// that truncates a share itself (core.Client.ShareImage under reported
// loss) announces the full packet count and sets the marker on the last
// packet it does send: the marker ends the collection there, so the
// prefix is delivered instead of waiting out the TTL for packets that
// were never sent.
func (bs *BaseStation) collectPacket(object string, idx int, frame []byte) error {
	pkt, err := rtp.Unmarshal(frame)
	if err != nil {
		return err
	}
	if err := bs.collect.AddPacket(object, idx, pkt.Payload); err != nil {
		return err
	}
	if pkt.Marker {
		bs.collect.EndAt(object, idx+1)
	}
	return nil
}

// maybeDeliver forwards a wired-side image to the wireless clients
// once every packet has been collected, then purges the collection
// state (reassembly buffers, announce metadata) — completed transfers
// must not accumulate in the broker.
func (bs *BaseStation) maybeDeliver(sender, object, sel string) {
	st, err := bs.collect.Stats(object)
	if err != nil || st.PacketsAccepted != st.TotalPackets {
		return
	}
	bs.deliverCollectedImage(sender, object, sel)
	bs.collections.Purge(object)
	bs.collect.Forget(object)
}

// deliverCollectedImage sends a collected wired-side image to each
// wireless client at its own tier.  The collected stream is the image
// tier as it stands (DESIGN.md §17): once its headers pass the coder's
// checks it is re-split and relayed, not decoded and coded again, and
// the lower tiers are derived from it only if somebody sits in them.
func (bs *BaseStation) deliverCollectedImage(sender, object, sel string) {
	meta, _ := bs.collections.Meta(object)
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
	rs := &renditions{bs: bs, sender: sender, object: object, sel: sel, obj: obj}
	// Per-client pipeline: resolve the flattened profile, infer the
	// tier, clamp to the client's declared modality preference, then
	// frame + transmit that tier's rendition through forwardTiered.
	pipe := dispatch.NewPipeline(
		dispatch.Match(func(id string) (selector.Attributes, bool) {
			flat, _, ok := bs.reg.FlatSnapshot(id)
			return flat, ok
		}),
		func(t *dispatch.Task) error {
			a, err := bs.Assess(t.To)
			if err != nil || a.Tier == radio.TierNone {
				if obs.Enabled() {
					obs.Drop(0, obs.StageDeliver,
						"bs "+bs.id+": collected image "+object+" not deliverable to "+t.To)
				}
				return dispatch.ErrSkip
			}
			// Respect the client's preferred modality when declared
			// (e.g. a battery-saving client that switched to text mode).
			tier := a.Tier
			if pref, ok := t.Flat[profile.SectionPreference+".modality"]; ok {
				switch media.Kind(pref.Str()) {
				case media.KindText:
					tier = radio.TierText
				case media.KindSketch:
					if tier > radio.TierSketch {
						tier = radio.TierSketch
					}
				}
			}
			t.Tier = int(tier)
			return nil
		},
		func(t *dispatch.Task) error {
			bs.forwardTiered(rs, radio.Tier(t.Tier), bs.rfTx, t.To)
			return nil
		},
	)
	bs.pool.Each(0, bs.reg.IDs(), func(id string) error {
		return bs.runTask(pipe, dispatch.Task{To: id, Node: bs.id})
	})
}

// sweepLoop periodically evicts idle, never-completed collections:
// a wired sender crashing mid-transfer or a lossy segment eating tail
// packets must not leak reassembly buffers and announce metadata.
func (bs *BaseStation) sweepLoop() {
	defer close(bs.sweepDone)
	ttl := bs.collections.TTL()
	if ttl <= 0 {
		<-bs.sweepStop
		return
	}
	interval := ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := bs.clk.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-bs.sweepStop:
			return
		case now := <-ticker.C():
			for _, object := range bs.collections.Sweep(now) {
				bs.collect.Forget(object)
				if obs.Enabled() {
					obs.Drop(0, obs.StageDeliver,
						"bs "+bs.id+": incomplete collection "+object+" expired")
				}
			}
		}
	}
}

// --- Uplink frame handling (wireless segment → relays) ---

// wirelessLoop receives uplink frames from wireless clients over the
// radio segment: clients transmit framework messages; the BS relays
// them as if the client had called UplinkEvent/UplinkShare.
func (bs *BaseStation) wirelessLoop() {
	defer close(bs.rfDone)
	for pkt := range bs.wireless.Recv() {
		bs.handleWireless(pkt)
	}
}

func (bs *BaseStation) handleWireless(pkt transport.Packet) {
	v, ok := bs.parse("rf:"+pkt.From, pkt.Data)
	if !ok {
		return
	}
	m := v.Message(&bs.rfIntern)
	if _, ok := bs.reg.Get(m.Sender); !ok {
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
	p, ok := bs.reg.Get(m.Sender)
	if !ok {
		return
	}
	intPrefix := profile.SectionInterest + "."
	prefPrefix := profile.SectionPreference + "."
	for k, v := range m.Attrs {
		switch {
		case len(k) > len(intPrefix) && k[:len(intPrefix)] == intPrefix:
			p.Interests[k[len(intPrefix):]] = v
		case len(k) > len(prefPrefix) && k[:len(prefPrefix)] == prefPrefix:
			p.Preferences[k[len(prefPrefix):]] = v
		}
	}
	bs.reg.Put(p)
}
