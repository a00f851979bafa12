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
// radio state live in the sharded internal/registry, per-client
// delivery runs through the internal/dispatch worker pool and
// pipeline, and both segments are reached through dispatch transmit
// adapters.  The wired relay, which forwards an image share frame by
// frame as it passes, is in relay.go.
package basestation

import (
	"errors"
	"fmt"
	"runtime"
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
	"adaptiveqos/internal/slo"
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
	// fanOutWorkers is the dispatch pool's shard count: per-client
	// delivery work is hashed over this many single-worker queues.
	// 0 means GOMAXPROCS; 1 forces the inline sequential path, which
	// the package's tests choose.
	fanOutWorkers int
}

func (c Config) withDefaults() Config {
	if c.Thresholds == (radio.Thresholds{}) {
		c.Thresholds = radio.DefaultThresholds()
	}
	if c.registry == nil {
		c.registry = media.DefaultRegistry()
	}
	if c.fanOutWorkers <= 0 {
		c.fanOutWorkers = runtime.GOMAXPROCS(0)
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

// Stats counts base-station activity.
type Stats struct {
	UplinkEvents     uint64 // events relayed from wireless clients
	UplinkDropped    uint64 // uplink attempts below any tier
	ForwardFullImage uint64 // shares forwarded at full-image tier
	ForwardSketch    uint64 // shares degraded to sketch
	ForwardText      uint64 // shares degraded to text
	DownlinkUnicasts uint64 // deliveries to wireless clients
}

// BaseStation links the wireless segment to the collaboration session.
// It composes the three broker layers: the sharded membership registry
// (profiles + radio state), the dispatch pool/pipeline (per-client
// delivery), and the transmit adapters (wired multicast, wireless
// unicast); what remains here is the uplink protocol and the radio
// control plane.  Like a client it is a handler: transport.Serve drives
// its two segments, so it starts no goroutine of its own (the dispatch
// pool's workers are the pool's).
type BaseStation struct {
	id       string
	clk      clock.Clock    // the wired conn's
	wired    transport.Conn // multicast session peer
	wireless transport.Conn // radio-segment endpoint (unicast to clients)
	cfg      Config
	channel  *radio.Channel

	reg  *registry.Registry
	pool *dispatch.Pool

	wiredTx dispatch.Deliverer  // multicast adapter (session)
	rfTx    *dispatch.Unicaster // unicast adapter (wireless clients)

	// eventPipe relays one light wired-session event to one wireless
	// client: match → tier gate → transmit.
	eventPipe dispatch.Pipeline
	// relayFrame's, kept across frames: the re-stamped RTP body, its
	// fan-out, its candidates, and match → tier gate → image tier only
	// → transmit.
	frameBuf  []byte
	frameFan  *dispatch.Fanout
	frameIDs  []string
	framePipe dispatch.Pipeline
	// tasks recycles the per-candidate dispatch.Task (see runTask).
	tasks sync.Pool

	env    message.Enveloper
	unwrap *message.Unwrapper
	// Each segment owns the interner its frames decode through and the
	// message they decode into, refilled per frame: a segment handles
	// one frame at a time, and the dispatch pool's workers read the
	// wired one only while handleWired waits for them in Pool.Each.
	wiredIntern, rfIntern message.Interner
	wiredMsg, rfMsg       message.Message

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

	stops         [2]func() // end transport.Serve's driving of each segment
	unregRadioSrc func()
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
		reg:      registry.New(registry.DefaultShards),
		unwrap:   message.NewUnwrapper(),
	}
	bs.env.Node = id
	bs.sessionSeq = map[string]uint32{}
	bs.unwrap.Node = id
	bs.tasks.New = func() any { return new(dispatch.Task) }
	bs.wiredTx = &dispatch.Multicaster{Env: &bs.env, Conn: wired}
	bs.rfTx = &dispatch.Unicaster{Env: &bs.env, Conn: wireless,
		OnSend: func(string) { bs.stats.downlk.Add(1) }}
	bs.pool = dispatch.NewPool(dispatch.PoolConfig{
		Name:    "bs-" + id,
		Workers: cfg.fanOutWorkers,
	})
	bs.eventPipe = dispatch.NewPipeline(
		dispatch.Match(bs.flatOf),
		bs.tierGate(radio.TierText),
		dispatch.Transmit,
	)
	bs.frameFan = bs.rfTx.Fanout(nil)
	bs.framePipe = dispatch.NewPipeline(
		dispatch.Match(bs.flatOf),
		bs.tierGate(radio.TierText),
		imageTierOnly,
	)
	// SLO violation attributions get the client's radio picture from
	// here (Close unregisters).
	bs.unregRadioSrc = slo.Default().RegisterRadioSource(bs.RadioSnapshot)
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

// Close detaches both connections, waits until nothing drives them and
// stops the dispatch pool.  Safe to call more than once.
func (bs *BaseStation) Close() error {
	bs.unregRadioSrc()
	e1, e2 := bs.wired.Close(), bs.wireless.Close()
	bs.stops[0]()
	bs.stops[1]()
	bs.pool.Close()
	if e1 != nil {
		return e1
	}
	return e2
}

// --- Uplink (wireless client → session) ---
// (Membership and radio control plane: membership.go.)

// newMessage mints a frame from sender for to: the session when to is
// "", else one member.
func (bs *BaseStation) newMessage(kind message.Kind, sender, to, sel string, attrs []message.Attr, body []byte) *message.Message {
	m := &message.Message{
		Kind:      kind,
		Sender:    sender,
		Seq:       bs.nextSeq(sender, to),
		Timestamp: bs.clk.Now(),
		Selector:  sel,
		Body:      body,
	}
	m.SetAttrs(attrs)
	return m
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

// UplinkEvent relays a plain event (chat line, whiteboard stroke) from
// a wireless client: multicast to the session, unicast to the other
// wireless clients.  The uplink must meet at least the text tier.
func (bs *BaseStation) UplinkEvent(sender, app, sel string, payload []byte) error {
	if !bs.reg.Has(sender) {
		return fmt.Errorf("%w: %s", ErrNotJoined, sender)
	}
	assess, err := bs.Assess(sender)
	if err != nil {
		return err
	}
	if assess.Tier < radio.TierText {
		bs.stats.uplinkDropped.Add(1)
		if obs.Enabled() {
			obs.Drop(0, obs.StagePublish,
				fmt.Sprintf("bs %s: uplink event from %s below text tier (%.1f dB)",
					bs.id, sender, assess.SIRdB))
		}
		return fmt.Errorf("%w: %s at %.1f dB", ErrNoService, sender, assess.SIRdB)
	}
	m := bs.newMessage(message.KindEvent, sender, "", sel, []message.Attr{{Name: message.AttrApp, Value: selector.S(app)}}, payload)
	msgID := obs.MsgID(m.Sender, m.Seq)
	obs.AppendHop(msgID, bs.id, obs.StagePublish)
	sp := obs.StartStage(msgID, obs.StagePublish)
	if err := bs.wiredTx.Deliver("", m); err != nil {
		if sp.Active() {
			sp.EndErr("bs relay: " + err.Error())
		}
		return err
	}
	// Every member gets the same bytes: one envelope for the fan-out.
	fan := bs.rfTx.Fanout(m)
	if err := bs.pool.Each(msgID, bs.reg.IDs(), func(id string) error {
		if id == sender {
			return nil
		}
		return fan.Deliver(id)
	}); err != nil {
		if sp.Active() {
			sp.EndErr("bs fan-out: " + err.Error())
		}
		return err
	}
	sp.End()
	bs.stats.uplinkEvents.Add(1)
	return nil
}

// UplinkShare relays an image share from a wireless client.  The base
// station receives the content, selects the data-type format by the
// sender's received SIR — full image, text + base sketch, or text
// description only — and forwards that modality to the multicast
// session; each other wireless client receives the richest modality
// its own SIR supports (never richer than what the uplink admitted).
func (bs *BaseStation) UplinkShare(sender, object, sel string, obj *media.Object) error {
	if !bs.reg.Has(sender) {
		return fmt.Errorf("%w: %s", ErrNotJoined, sender)
	}
	assess, err := bs.Assess(sender)
	if err != nil {
		return err
	}
	if assess.Tier == radio.TierNone {
		bs.stats.uplinkDropped.Add(1)
		if obs.Enabled() {
			obs.Drop(0, obs.StagePublish,
				fmt.Sprintf("bs %s: uplink share from %s below any tier (%.1f dB)",
					bs.id, sender, assess.SIRdB))
		}
		return fmt.Errorf("%w: %s at %.1f dB", ErrNoService, sender, assess.SIRdB)
	}

	// Forward to the wired session at the uplink-admitted tier.  Every
	// recipient below is served from the one rendition set.
	rs := &renditions{bs: bs, sender: sender, object: object, sel: sel, obj: obj}
	if err := bs.forwardTiered(rs, assess.Tier, bs.wiredTx, ""); err != nil {
		return err
	}
	switch assess.Tier {
	case radio.TierImage:
		bs.stats.fwdImage.Add(1)
	case radio.TierSketch:
		bs.stats.fwdSketch.Add(1)
	case radio.TierText:
		bs.stats.fwdText.Add(1)
	}

	// The other wireless clients get it no richer than the uplink
	// admitted, and only those whose profiles its selector admits.
	if err := bs.relayShare(dispatch.Task{Msg: &message.Message{Selector: sel}, Node: bs.id}, rs, assess.Tier, sender); err != nil {
		return err
	}
	bs.stats.uplinkEvents.Add(1)
	return nil
}
