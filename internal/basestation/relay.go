package basestation

// The relay and the two segments' handlers: session → wireless clients,
// and radio segment → session and the other members.  Whatever leaves
// the station for more than one member — a wired line, a member's
// line, a share's announce or data frame — leaves through its segment's
// one fan-out (segment.fanOut), which calls a per-member function of
// the segment's for each candidate in turn, on the handler's own
// goroutine: match and tier (matchTier), then the transmit adapters;
// membership state comes from the registry.  An image share,
// wired or a member's, is relayed frame by frame as it passes, on one
// path: the station collects nothing.

import (
	"sync"

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

// matchTier is what serving member id message m begins with: the match
// stage — its flat profile, held to m's selector — then its assessed
// tier.  It returns the profile and the tier, or false for a member not
// served: one that does not match, or, a drop it records, one below
// the text tier.
func (bs *BaseStation) matchTier(msgID uint64, m *message.Message, id string) (selector.Attributes, radio.Tier, bool) {
	sp := obs.StartStage(msgID, obs.StageMatch)
	flat, _, ok := bs.reg.FlatSnapshot(id)
	if !ok || !m.MatchProfile(flat) {
		sp.End()
		return nil, radio.TierNone, false
	}
	sp.End()
	obs.AppendHop(msgID, bs.id, obs.StageMatch)
	a, err := bs.Assess(id)
	if err != nil || a.Tier < radio.TierText {
		if obs.Enabled() {
			obs.Drop(msgID, obs.StageDeliver, "bs "+bs.id+": "+id+" below text tier")
		}
		return nil, radio.TierNone, false
	}
	return flat, a.Tier, true
}

// --- The fan-out and the share relay, one per segment ---

// segment is what the station keeps for one of its two segments, from
// frame to frame and from share to share.  transport.Serve drives each
// segment on a goroutine of its own on a wall substrate; on the radio
// segment UplinkEvent relays from its caller's goroutine too, so there
// handleWireless and UplinkEvent each hold mu while they relay.  A
// segment relays one message at a time, to one member at a time.
type segment struct {
	bs     *BaseStation
	mu     sync.Mutex
	unwrap *message.Unwrapper
	// frame is the scratch a fragmented frame is reassembled into, dead
	// once the handler returns; m and intern are what a frame decodes
	// into, line and lineAttr what UplinkEvent stamps a line into.
	frame    []byte
	m, line  message.Message
	intern   message.Interner
	lineAttr [1]message.Attr
	// The message being sent to members, its fan-out, its candidates
	// and its trace identity.
	fan   *dispatch.Fanout
	ids   []string
	msg   *message.Message
	msgID uint64
	// The share being relayed: the object its announce describes, its
	// rendition set (the lower tiers' buffers kept), the richest tier
	// it is served at and the message a rendition is stamped into.
	obj    media.Object
	rs     renditions
	limit  radio.Tier
	tiered message.Message
	// frameBuf is the frame's RTP body as stamped again for the members.
	frameBuf []byte
}

func (s *segment) init(bs *BaseStation) {
	s.bs = bs
	s.unwrap = message.NewUnwrapper()
	s.unwrap.Node = bs.id
	s.rs.bs = bs
	s.fan = bs.rfTx.Fanout(nil)
}

// read reassembles pkt into the segment's scratch and decodes the frame
// it completes into the segment's message: all that is relayed of it is
// copied out (enveloped, re-stamped, rendered) before the handler
// returns.  It returns nil for a fragment of a frame still incomplete,
// for the station's own frames and for what cannot be read (ReadInto
// counts that).
func (s *segment) read(pkt transport.Packet) *message.Message {
	frame, v, _ := s.unwrap.ReadInto(pkt.From, pkt.Data, &s.frame)
	if frame == nil || string(v.Sender()) == s.bs.id {
		return nil
	}
	v.MessageInto(&s.m, &s.intern)
	return &s.m
}

// prepare readies the segment to send m: its fan-out, its trace
// identity and its candidates, the members its selector admits, index
// first; an unparsable selector admits no one, as MatchProfile does.
func (s *segment) prepare(m *message.Message) {
	s.fan.Reset(m)
	s.msg, s.msgID = m, obs.MsgID(m.Sender, m.Seq)
	s.ids = s.ids[:0]
	if sel, err := m.CompiledSelector(); err == nil {
		s.ids = s.bs.reg.AppendMatchIDs(s.ids, sel)
	}
}

// fanOut runs to for every candidate of m but from, the member m came
// from ("" for a wired message), one after another, and returns the
// first member's error: every candidate is attempted whatever an
// earlier one returned.  m is enveloped once, for every member it is
// transmitted to.  It is the only way out of the station to many
// members.
func (s *segment) fanOut(m *message.Message, to func(id string) error, from string) error {
	s.prepare(m)
	var first error
	for _, id := range s.ids {
		if id == from {
			continue
		}
		if err := to(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// transmit unicasts the fan-out to member id, counted once the
// substrate has its datagrams.
func (s *segment) transmit(id string) error {
	obs.AppendHop(s.msgID, s.bs.id, obs.StageTransmit)
	err := s.fan.Deliver(id)
	if err == nil {
		s.bs.stats.downlk.Add(1)
	}
	return err
}

// wiredLine serves a wired line to member id at the text tier or above.
func (s *segment) wiredLine(id string) error {
	if _, _, ok := s.bs.matchTier(s.msgID, s.msg, id); !ok {
		return nil
	}
	return s.transmit(id)
}

// announce serves the share's announce to member id: as it was sent at
// the image tier, that tier's rendition at any other.
func (s *segment) announce(id string) error {
	flat, tier, ok := s.bs.matchTier(s.msgID, s.msg, id)
	if !ok {
		return nil
	}
	if tier = servedTier(tier, flat, s.limit); tier == radio.TierImage {
		return s.transmit(id)
	}
	err := s.forwardTiered(tier, s.bs.rfTx, id)
	if err == nil {
		s.bs.stats.downlk.Add(1)
	}
	return err
}

// relayLine relays a member's chat line or stroke m, numbered into the
// member's session stream (DESIGN.md §7.5): multicast to the session as
// the member sent it, then unicast to the other members its selector
// admits, with no tier gate.  The caller holds s.mu.
func (s *segment) relayLine(m *message.Message) error {
	bs := s.bs
	msgID := obs.MsgID(m.Sender, m.Seq)
	obs.AppendHop(msgID, bs.id, obs.StagePublish)
	sp := obs.StartStage(msgID, obs.StagePublish)
	err := bs.wiredTx.Deliver("", m)
	if err == nil {
		err = s.fanOut(m, s.transmit, m.Sender)
	}
	if err != nil {
		if sp.Active() {
			sp.EndErr("bs relay: " + err.Error())
		}
		return err
	}
	sp.End()
	bs.stats.uplinkEvents.Add(1)
	return nil
}

// relayAnnounce relays a share's announce as it passes (DESIGN.md §17):
// a wired share's, or the share of the member from, which its uplink
// admits at limit.  A member served at the image tier gets the announce
// as it was sent, and relayFrame gives it the data frames that follow;
// any other member gets the share's sketch or text rendition, drawn
// from the announce alone, and none is served richer than limit.  A
// member's share goes to the session first (uplinkShare).  The station
// keeps nothing of the share: the object and the rendition set are the
// segment's, rewritten by each announce.
func (s *segment) relayAnnounce(m *message.Message, limit radio.Tier, from string) {
	meta, err := apps.DecodeImageMeta(m.Body)
	if err != nil {
		return
	}
	// The lower tiers need the description, the carried sketch and the
	// size; an announce always heads a progressive image, and which
	// coding its stream uses is the image tier's business.
	s.obj = media.Object{Kind: media.KindImage, Format: media.FormatEZW, Description: meta.Description,
		Width: meta.Width, Height: meta.Height, Sketch: meta.Sketch}
	s.rs.reset(m.Sender, meta.Object, m.Selector, &s.obj)
	if from != "" && s.uplinkShare(m, limit) != nil {
		return
	}
	s.limit = limit
	_ = s.fanOut(m, s.announce, from) // a member not served is in the flight recorder
}

// relayFrame relays one data frame of a share to the members served at
// the image tier, the tier relayAnnounce gave its announce to, but
// from.  A member's frame goes to the session first, as it was sent and
// in the member's session stream, and goes anywhere only while the
// member's uplink holds the image tier.  The frame's RTP header is then
// stamped again into the segment's scratch — the share's SSRC, its
// level as the seq — so each share is one RTP stream at the member.
// The scratch, the fan-out and the candidate list are the segment's,
// kept across frames: a frame costs its datagrams.
func (s *segment) relayFrame(m *message.Message, from string) {
	bs := s.bs
	object, ok1 := m.Attr(message.AttrObject)
	level, _ := m.Attr(message.AttrLevel)
	idx, ok2 := level.Whole()
	pkt, err := rtp.Unmarshal(m.Body)
	if !ok1 || !ok2 || err != nil {
		metrics.C(metrics.CtrDecodeErrors).Inc() // only an unreadable frame pays the lookup
		return
	}
	if from != "" {
		if a, err := bs.Assess(from); err != nil || a.Tier < radio.TierImage {
			return
		}
		m.Seq = bs.nextSeq(from, "")
		if bs.wiredTx.Deliver("", m) != nil {
			return
		}
	}
	pkt.SSRC, pkt.Seq = rtp.SSRCOf(bs.id+"/"+object.Str()), uint16(idx)
	s.frameBuf = pkt.AppendMarshal(s.frameBuf[:0])
	m.Body = s.frameBuf
	_ = s.fanOut(m, s.dataFrame, from) // a member that could not be served is in the flight recorder
}

// dataFrame serves a share's data frame to member id if it is served
// the image tier.
func (s *segment) dataFrame(id string) error {
	flat, tier, ok := s.bs.matchTier(s.msgID, s.msg, id)
	if !ok || servedTier(tier, flat, radio.TierImage) != radio.TierImage {
		return nil
	}
	return s.transmit(id)
}

// servedTier is the tier a share is served to a member at: the richest
// that its SIR supports (tier), its declared modality (in its flat
// profile) admits and limit allows.
func servedTier(tier radio.Tier, flat selector.Attributes, limit radio.Tier) radio.Tier {
	tier = min(tier, limit)
	// Respect the client's preferred modality when declared
	// (e.g. a battery-saving client that switched to text mode).
	if pref, ok := flat[profile.SectionPreference+".modality"]; ok {
		switch media.Kind(pref.Str()) {
		case media.KindText:
			tier = radio.TierText
		case media.KindSketch:
			tier = min(tier, radio.TierSketch)
		}
	}
	return tier
}

// --- Downlink (session → wireless clients) ---

// handleWired relays wired-session traffic to the wireless clients,
// degrading content to each client's tier.
func (bs *BaseStation) handleWired(pkt transport.Packet) {
	s := &bs.wiredSeg
	m := s.read(pkt)
	if m == nil {
		return
	}
	app, _ := m.Attr(message.AttrApp)
	switch {
	case m.Kind == message.KindEvent && (app.Str() == apps.AppChat || app.Str() == apps.AppWhiteboard || app.Str() == apps.AppMedia):
		// Match and tier, then transmit, for each candidate (DESIGN.md
		// §12); a member that could not be served is in the flight
		// recorder.
		_ = s.fanOut(m, s.wiredLine, "")
	case m.Kind == message.KindEvent && app.Str() == apps.AppImageViewer:
		s.relayAnnounce(m, radio.TierImage, "")
	case m.Kind == message.KindData && app.Str() == apps.AppImageViewer:
		s.relayFrame(m, "")
	}
}

// --- Uplink (wireless segment → session and the other members) ---

// handleWireless takes uplink frames from wireless clients over the
// radio segment, a star whose one hub is the station: a member's chat
// lines and strokes are relayed as it sent them, its image share
// through the wired share's relay, limited to its uplink tier, and its
// profile announcements go into its stored profile.  Anything else (its
// reception reports among them) stops here.
func (bs *BaseStation) handleWireless(pkt transport.Packet) {
	s := &bs.rfSeg
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.read(pkt)
	if m == nil || !bs.reg.Has(m.Sender) {
		return // not joined: ignore
	}
	app, _ := m.Attr(message.AttrApp)
	switch {
	case m.Kind == message.KindProfile:
		bs.applyProfileUpdate(m)
	case m.Kind == message.KindEvent && (app.Str() == apps.AppChat || app.Str() == apps.AppWhiteboard):
		if _, err := bs.admit(m.Sender, "event"); err == nil {
			m.Seq = bs.nextSeq(m.Sender, "")
			_ = s.relayLine(m)
		}
	case m.Kind == message.KindEvent && app.Str() == apps.AppImageViewer:
		if tier, err := bs.admit(m.Sender, "share"); err == nil {
			s.relayAnnounce(m, tier, m.Sender)
		}
	case m.Kind == message.KindData && app.Str() == apps.AppImageViewer:
		s.relayFrame(m, m.Sender)
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
