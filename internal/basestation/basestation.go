// Package basestation implements the wireless extension: the base
// station that links a wireless segment to the rest of the distributed
// collaborative session.  The base station is a peer in the multicast
// session and the control coordinator for its wireless clients: it
// maintains their profiles (distance, signal strength, transmit rate,
// capability), computes per-client SIR from the radio channel model,
// gates the modality it forwards on SIR thresholds (text only / text +
// base sketch / full image), relays uplink events to the multicast
// group while unicasting to the other wireless clients, and runs the
// power-control loop that asks over-target clients to transmit lower —
// conserving battery and reducing interference for everyone.
//
// Since the layered-broker refactor (DESIGN.md §9) this package is
// composition plus uplink protocol handling: membership and per-client
// radio state live in internal/registry's one table, each segment's
// handler serves the members one after another through the station's
// own per-member functions (relay.go), and both segments are reached
// through dispatch transmit adapters.  The radio segment is a star with the station at its hub:
// a member's frames reach the station and no other member.  The share
// relay, which forwards an image share frame by frame as it passes —
// a wired one to the members, a member's to the session and the other
// members — is in relay.go.
package basestation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// Base-station errors.
var (
	ErrNotJoined     = errors.New("basestation: client is not joined")
	ErrAlreadyJoined = errors.New("basestation: client already joined")
	ErrNoService     = errors.New("basestation: SIR below any service tier")
)

// Config parameterizes a base station.  The station stamps frames on
// its wired conn's clock (transport.Conn.Clock).
type Config struct {
	// Thresholds gate forwarded modalities (default DefaultThresholds).
	Thresholds radio.Thresholds

	// registry supplies modality transformers (default
	// media.DefaultRegistry); the package's tests substitute one.
	registry *media.Registry
}

func (c Config) withDefaults() Config {
	if c.Thresholds == (radio.Thresholds{}) {
		c.Thresholds = radio.DefaultThresholds()
	}
	if c.registry == nil {
		c.registry = media.DefaultRegistry()
	}
	return c
}

// Assessment is the basic service assessment the base station returns
// to a client when it establishes a connection, and on demand.
type Assessment struct {
	SIRdB float64
	Tier  radio.Tier
	// Power is the client's current transmit power.
	Power float64
	// Distance is the client's current distance from the BS.
	Distance float64
}

// Stats counts base-station activity.  The Forward counts are a
// member's shares sent up to the session (uplinkShare), by the tier its
// uplink held; the shares served down to members count on none of them.
type Stats struct {
	UplinkEvents     uint64 // events relayed from wireless clients
	UplinkDropped    uint64 // uplink attempts below any tier
	ForwardFullImage uint64 // a member's shares sent up at the image tier
	ForwardSketch    uint64 // a member's shares sent up as sketches
	ForwardText      uint64 // a member's shares sent up as text
	DownlinkUnicasts uint64 // deliveries to wireless clients
}

// BaseStation links the wireless segment to the collaboration session.
// It composes the membership registry (profiles + radio state)
// and the transmit adapters (wired multicast, wireless unicast); what
// remains here is the relay, the uplink protocol and the radio control
// plane.  Like a client it is a handler: transport.Serve drives its two
// segments, and each segment's handler serves the members itself, so
// it starts no goroutine of its own.
type BaseStation struct {
	id       string
	clk      clock.Clock    // the wired conn's
	wired    transport.Conn // multicast session peer
	wireless transport.Conn // radio-segment endpoint (unicast to clients)
	cfg      Config
	channel  *radio.Channel

	reg *registry.Registry

	wiredTx dispatch.Deliverer  // multicast adapter (session)
	rfTx    *dispatch.Unicaster // unicast adapter (wireless clients)

	// What each segment's handler keeps from frame to frame and share
	// to share (relay.go).
	wiredSeg, rfSeg segment

	env message.Enveloper

	// What the station multicasts to the session is numbered per
	// originating member, contiguous from 1 (sessionSeq, under seqMu),
	// as a wired peer numbers its own frames: wired receivers order and
	// repair a member's stream like any sender's.  An entry outlives
	// the member, so one that leaves and rejoins continues its stream
	// instead of replaying seqs receivers discard.  Radio-leg unicasts
	// draw from the station-wide seq.
	seqMu      sync.Mutex
	sessionSeq map[string]uint32
	seq        atomic.Uint32

	stats struct {
		uplinkEvents, uplinkDropped          atomic.Uint64
		fwdImage, fwdSketch, fwdText, downlk atomic.Uint64
	}

	stops [2]func() // end transport.Serve's driving of each segment
}

// New creates a base station bridging the wired multicast session and
// the wireless segment, using channel as the radio model, and has
// transport.Serve drive both.
func New(id string, wired, wireless transport.Conn, channel *radio.Channel, cfg Config) *BaseStation {
	cfg = cfg.withDefaults()
	bs := &BaseStation{
		id:       id,
		clk:      wired.Clock(),
		wired:    wired,
		wireless: wireless,
		cfg:      cfg,
		channel:  channel,
		reg:      registry.New(),
	}
	bs.env.Node = id
	bs.sessionSeq = map[string]uint32{}
	bs.wiredTx = &dispatch.Multicaster{Env: &bs.env, Conn: wired}
	bs.rfTx = &dispatch.Unicaster{Env: &bs.env, Conn: wireless}
	bs.wiredSeg.init(bs)
	bs.rfSeg.init(bs)
	bs.stops = [2]func(){
		transport.Serve(wired, 0, bs.handleWired, nil),
		transport.Serve(wireless, 0, bs.handleWireless, nil),
	}
	return bs
}

// Stats returns a snapshot of the relay counters.
func (bs *BaseStation) Stats() Stats {
	return Stats{
		UplinkEvents:     bs.stats.uplinkEvents.Load(),
		UplinkDropped:    bs.stats.uplinkDropped.Load(),
		ForwardFullImage: bs.stats.fwdImage.Load(),
		ForwardSketch:    bs.stats.fwdSketch.Load(),
		ForwardText:      bs.stats.fwdText.Load(),
		DownlinkUnicasts: bs.stats.downlk.Load(),
	}
}

// Close detaches both connections and waits until nothing drives them.
// Safe to call more than once.
func (bs *BaseStation) Close() error {
	e1, e2 := bs.wired.Close(), bs.wireless.Close()
	bs.stops[0]()
	bs.stops[1]()
	if e1 != nil {
		return e1
	}
	return e2
}

// --- Uplink (wireless client → session) ---
// (Membership and radio control plane: membership.go.)

// stamp writes into m the next frame from sender for to: the session
// when to is "", else one member.
func (bs *BaseStation) stamp(m *message.Message, kind message.Kind, sender, to, sel string, attrs []message.Attr, body []byte) {
	*m = message.Message{
		Kind:      kind,
		Sender:    sender,
		Seq:       bs.nextSeq(sender, to),
		Timestamp: bs.clk.Now(),
		Selector:  sel,
		Body:      body,
	}
	m.SetAttrs(attrs)
}

// nextSeq numbers the next frame the station sends from sender to to:
// per sender from 1 on the session multicast (to == ""), station-wide
// on the radio leg.
func (bs *BaseStation) nextSeq(sender, to string) uint32 {
	if to != "" {
		return bs.seq.Add(1)
	}
	bs.seqMu.Lock()
	defer bs.seqMu.Unlock()
	bs.sessionSeq[sender]++
	return bs.sessionSeq[sender]
}

// admit assesses sender's uplink of what (an event, a share) and
// returns the tier it holds, or an error: the sender has not joined, or
// it is below the text tier, a drop the station counts.
func (bs *BaseStation) admit(sender, what string) (radio.Tier, error) {
	if !bs.reg.Has(sender) {
		return radio.TierNone, fmt.Errorf("%w: %s", ErrNotJoined, sender)
	}
	assess, err := bs.Assess(sender)
	if err != nil {
		return radio.TierNone, err
	}
	if assess.Tier < radio.TierText {
		bs.stats.uplinkDropped.Add(1)
		if obs.Enabled() {
			obs.Drop(0, obs.StagePublish,
				fmt.Sprintf("bs %s: uplink %s from %s below text tier (%.1f dB)",
					bs.id, what, sender, assess.SIRdB))
		}
		return radio.TierNone, fmt.Errorf("%w: %s at %.1f dB", ErrNoService, sender, assess.SIRdB)
	}
	return assess.Tier, nil
}

// UplinkEvent relays a plain event (chat line, whiteboard stroke) from
// a wireless client as if it had come over the radio (relayLine), from
// the caller's goroutine under the radio segment's lock.  The uplink
// must meet at least the text tier.
func (bs *BaseStation) UplinkEvent(sender, app, sel string, payload []byte) error {
	if _, err := bs.admit(sender, "event"); err != nil {
		return err
	}
	s := &bs.rfSeg
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lineAttr[0] = message.Attr{Name: message.AttrApp, Value: selector.S(app)}
	bs.stamp(&s.line, message.KindEvent, sender, "", sel, s.lineAttr[:], payload)
	return s.relayLine(&s.line)
}

// uplinkShare sends the session a member's share at tier, the tier its
// uplink holds (DESIGN.md §17): at the image tier the announce m, now
// in the member's session stream, and relayFrame sends the frames that
// follow; at a lower tier that tier's rendition, drawn from the
// segment's renditions.
func (s *segment) uplinkShare(m *message.Message, tier radio.Tier) error {
	bs := s.bs
	var err error
	if tier == radio.TierImage {
		m.Seq = bs.nextSeq(m.Sender, "")
		err = bs.wiredTx.Deliver("", m)
	} else {
		err = s.forwardTiered(tier, bs.wiredTx, "")
	}
	if err != nil {
		return err
	}
	switch tier {
	case radio.TierImage:
		bs.stats.fwdImage.Add(1)
	case radio.TierSketch:
		bs.stats.fwdSketch.Add(1)
	case radio.TierText:
		bs.stats.fwdText.Add(1)
	}
	bs.stats.uplinkEvents.Add(1)
	return nil
}
