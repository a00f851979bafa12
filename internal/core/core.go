// Package core implements the adaptive QoS collaboration framework:
// the client that joins a multicast session, publishes semantically
// addressed events, filters inbound traffic against its own profile,
// drives the collaboration applications (chat, whiteboard, image
// viewer), and runs the adaptation loop that couples the SNMP network
// state interface to the inference engine.
//
// A wired client is a peer on the multicast substrate.  Wireless
// clients join through a base station (package basestation), which is
// itself a peer built on the same primitives.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/dispatch"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/transport"
)

// Config parameterizes a client.  The client keeps time on its conn's
// clock (transport.Conn.Clock), so on a DESNet all of it runs on the
// network's virtual time.
type Config struct {
	// Contract is the client's QoS contract (nil = empty contract).
	Contract *profile.Contract
	// Monitor, when set, is sampled for system state every
	// AdaptInterval; when nil the profile's state attributes are used.
	Monitor *hostagent.Monitor
	// MTU bounds each wire datagram; larger message frames are
	// fragmented transparently (default 8 KiB).
	MTU int
	// Repair enables automatic gap repair (nil = off): event and data
	// frames pass through per-sender order buffers, and a repair loop
	// NACKs the named coordinator for persistent gaps (DESIGN.md §10).
	Repair *RepairOptions

	// monitorParams are the parameters sampled from Monitor (default
	// cpu-load and page-faults); the package's tests substitute others.
	monitorParams []string
}

// RepairOptions configures the client's automatic gap-repair loop.
type RepairOptions struct {
	// Coordinator is the archiving coordinator NACKed for replays.
	Coordinator string
	// StallTimeout is how long a gap must hold parked events before the
	// first NACK (default 200ms); the backoff starts there and doubles
	// to 16× that, and the kernel is polled every quarter of it.
	StallTimeout time.Duration
	// MaxRetries is the NACK budget per gap; after that many and one
	// more backoff without progress the gap is abandoned (default 6).
	MaxRetries int
	// Seed makes the backoff jitter reproducible (0 means 1).
	Seed int64
	// MaxPending bounds each sender's order buffer (default 512);
	// overflow evicts the farthest-ahead frame so a corrupt sequence
	// number cannot pin memory.
	MaxPending int
}

func (r RepairOptions) withDefaults() RepairOptions {
	if r.StallTimeout <= 0 {
		r.StallTimeout = 200 * time.Millisecond
	}
	if r.MaxRetries < 1 {
		r.MaxRetries = 6
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.MaxPending <= 0 {
		r.MaxPending = 512
	}
	return r
}

func (c Config) withDefaults() Config {
	if len(c.monitorParams) == 0 {
		c.monitorParams = []string{hostagent.ParamCPULoad, hostagent.ParamPageFaults}
	}
	return c
}

// Stats counts client-level events.
type Stats struct {
	EventsReceived uint64 // semantic messages accepted
	EventsFiltered uint64 // messages rejected by the profile
	DataPackets    uint64 // image data packets ingested
	DecodeErrors   uint64 // undecodable frames or payloads
	ReportsSent    uint64 // reception reports multicast, one per data stream each AdaptInterval
	Truncated      uint64 // own image shares cut short because receivers reported loss
	SampleErrors   uint64 // state samples that failed; the previous decision stood
}

// AdaptInterval is how often Poll adapts and sends reception reports
// (DESIGN.md §3): RFC 3550 §6.2's reduced report minimum, 360 / (session
// kb/s), for an image session of 360 kb/s or more.  Not a knob.
const AdaptInterval = time.Second

// Client is one collaborating endpoint around a receive Kernel
// (DESIGN.md §3).  It is a handler: it starts no goroutine and owns no
// ticker.  transport.Serve feeds it packets (HandlePacket) and time
// (Poll) on whatever substrate it is attached to, inline on a DESNet.
// The client owns the send side and the applications; unwrap, decode,
// per-sender ordering, gap repair and the profile match live in the
// kernel, whose Deliver and Control effects the client applies.
type Client struct {
	cfg    Config
	engine *inference.Engine

	// kmu serializes the kernel: HandlePacket and Poll both enter it,
	// and effects run with it held.
	kmu sync.Mutex
	k   *Kernel

	chat    *apps.ChatArea
	wb      *apps.Whiteboard
	viewer  *apps.ImageViewer
	inbox   *apps.MediaInbox
	locks   lockTable
	reports *reportState

	// txMulti is the shared multicast transmit adapter (the same seam
	// the base station's relay pipelines transmit through); unicasts go
	// through the kernel's adapter so both share one enveloper.
	txMulti dispatch.Deliverer
	// pub lends each Say, Draw and ShareImage a publishScratch for the
	// call.  A pool, not one buffer under a mutex: publishers may run
	// concurrently, and a handler a zero-delay substrate runs inline
	// under a send may publish on this client again.
	pub sync.Pool

	clk     clock.Clock // the conn's
	rtpSend *rtp.Sender
	rtpMu   sync.Mutex
	rtpRecv map[string]*rtp.Receiver // per-sender reception statistics

	// seq numbers event/data frames (gapless per sender: receivers
	// order and repair on it, the coordinator indexes its archive by
	// it); control frames are numbered by the kernel's separate
	// sequence.
	seq atomic.Uint32

	mu           sync.RWMutex
	lastDecision inference.Decision

	// Poll's alone (Serve calls it one at a time): when it next adapts,
	// and each sender's Received count at its last report.
	nextAdapt time.Time
	reported  map[string]uint64

	stats struct {
		received, data, errors atomic.Uint64
		reports, truncated     atomic.Uint64
		sampleErrors           atomic.Uint64
	}

	stop func() // ends transport.Serve's driving
}

// NewClient attaches a client to the substrate and has transport.Serve
// drive it.  Callers configure interests/capabilities through Profile().
func NewClient(conn transport.Conn, cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:      cfg,
		clk:      conn.Clock(),
		k:        NewKernel(conn, cfg),
		engine:   inference.New(conn.ID(), cfg.Contract, conn.Clock()),
		chat:     apps.NewChatArea(),
		wb:       apps.NewWhiteboard(),
		viewer:   apps.NewImageViewer(),
		inbox:    apps.NewMediaInbox(),
		locks:    lockTable{states: make(map[string]LockStatus)},
		reports:  newReportState(conn.Clock()),
		rtpSend:  rtp.NewSender(rtp.SSRCOf(conn.ID()), 96, 0),
		rtpRecv:  make(map[string]*rtp.Receiver),
		reported: make(map[string]uint64),
	}
	c.k.Deliver = c.deliver
	c.k.Control = c.control
	c.pub.New = func() any { return new(publishScratch) }
	c.lastDecision = inference.Decision{PacketBudget: inference.Unlimited}
	c.txMulti = &dispatch.Multicaster{Env: &c.k.env, Conn: conn}
	c.nextAdapt = c.clk.Now().Add(AdaptInterval)
	every := AdaptInterval
	if iv := c.k.PollInterval(); iv > 0 && iv < every {
		every = iv
	}
	c.stop = transport.Serve(conn, every, c.HandlePacket, c.Poll)
	return c
}

// ID returns the client's substrate identifier.
func (c *Client) ID() string { return c.k.ID() }

// Profile returns the client's profile manager.
func (c *Client) Profile() *profile.Manager { return c.k.pm }

// Engine returns the client's inference engine, the one every
// adaptation decides through.
func (c *Client) Engine() *inference.Engine { return c.engine }

// Chat returns the chat application state.
func (c *Client) Chat() *apps.ChatArea { return c.chat }

// Whiteboard returns the whiteboard application state.
func (c *Client) Whiteboard() *apps.Whiteboard { return c.wb }

// Viewer returns the image viewer application state.
func (c *Client) Viewer() *apps.ImageViewer { return c.viewer }

// Inbox returns the direct media-delivery inbox (tiered content from a
// base station arrives here).
func (c *Client) Inbox() *apps.MediaInbox { return c.inbox }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		EventsReceived: c.stats.received.Load(),
		EventsFiltered: c.k.filtered.Load(),
		DataPackets:    c.stats.data.Load(),
		DecodeErrors:   c.stats.errors.Load() + c.k.decodeErrors.Load(),
		ReportsSent:    c.stats.reports.Load(),
		Truncated:      c.stats.truncated.Load(),
		SampleErrors:   c.stats.sampleErrors.Load(),
	}
}

// LastDecision returns the most recent adaptation decision.
func (c *Client) LastDecision() inference.Decision {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lastDecision
}

// Close detaches the client and waits until nothing drives it.
func (c *Client) Close() error {
	err := c.k.conn.Close()
	c.stop()
	return err
}

// --- Sending ---

// publishScratch is what one publish builds its frames in: the message,
// room for its attributes and the payload (a chat line's or stroke's
// encoding, an image packet's RTP frame).  The multicast adapter
// envelopes the message before it returns and keeps none of it, so the
// scratch goes back to the client's pool once the last frame is sent,
// and a publish allocates only its datagrams.
type publishScratch struct {
	m     message.Message
	attrs [4]message.Attr
	buf   []byte
}

// stamp readies s's message as the client's next event or data frame.
func (c *Client) stamp(s *publishScratch, kind message.Kind, sel string, attrs []message.Attr, body []byte) *message.Message {
	s.m = message.Message{
		Kind:      kind,
		Sender:    c.ID(),
		Seq:       c.seq.Add(1),
		Timestamp: c.clk.Now(),
		Selector:  sel,
		Body:      body,
	}
	s.m.SetAttrs(attrs)
	return &s.m
}

func (c *Client) multicast(m *message.Message) error {
	// Session records carry the publish workload (sender, sequence,
	// payload size, virtual-ns instant) so counterfactual replay can
	// reconstruct and re-drive it (DESIGN.md §15).  Event and data
	// frames consume the gapless per-sender sequence; control traffic
	// is not workload.
	if obs.Recording() && (m.Kind == message.KindEvent || m.Kind == message.KindData) {
		mediaType, _ := m.Attr(message.AttrMedia)
		level, _ := m.Attr(message.AttrLevel)
		obs.RecordPublish(m.Timestamp.UnixNano(), m.Sender, uint64(m.Seq),
			m.Kind.String(), mediaType.Str(), int(level.Num()), len(m.Body))
	}
	return c.txMulti.Deliver("", m)
}

// Say publishes a chat line addressed to profiles matching sel ("" =
// everyone).
func (c *Client) Say(text, sel string) error {
	s := c.pub.Get().(*publishScratch)
	defer c.pub.Put(s)
	// The local state repository reflects the local action immediately
	// (Apply and the codec only read the bytes, so one encoding serves
	// both).
	s.buf = apps.AppendSay(s.buf[:0], text)
	if err := c.chat.Apply(c.ID(), s.buf); err != nil {
		return err
	}
	s.attrs = [4]message.Attr{
		{Name: message.AttrApp, Value: selector.S(apps.AppChat)},
		{Name: message.AttrMedia, Value: selector.S(string(media.KindText))},
		{Name: message.AttrSize, Value: selector.N(float64(len(text)))},
	}
	return c.publishEvent(c.stamp(s, message.KindEvent, sel, s.attrs[:3], s.buf))
}

// Draw publishes a whiteboard stroke.
func (c *Client) Draw(stroke apps.Stroke, sel string) error {
	s := c.pub.Get().(*publishScratch)
	defer c.pub.Put(s)
	s.buf = apps.AppendStroke(s.buf[:0], stroke)
	if err := c.wb.Apply(s.buf); err != nil {
		return err
	}
	s.attrs = [4]message.Attr{
		{Name: message.AttrApp, Value: selector.S(apps.AppWhiteboard)},
		{Name: message.AttrMedia, Value: selector.S("stroke")},
	}
	return c.publishEvent(c.stamp(s, message.KindEvent, sel, s.attrs[:2], s.buf))
}

// publishEvent multicasts a chat line or stroke under its publish span.
func (c *Client) publishEvent(m *message.Message) error {
	id := obs.MsgID(m.Sender, m.Seq)
	obs.AppendHop(id, c.ID(), obs.StagePublish)
	sp := obs.StartStage(id, obs.StagePublish)
	err := c.multicast(m)
	sp.End()
	return err
}

// ShareImage publishes a progressive image: an announce event followed
// by apps.SharePackets data packets, each a prefix-extending slice of the
// embedded stream.  Receivers accept packets up to their own inferred
// budget.
//
// obj is retained read-only: the local viewer keeps slices of obj.Data
// itself (ImageViewer.AddPacket does not copy), as the base station's
// rendition sets already assume of a media.Object.  A caller that wants
// to reuse the buffer shares a Clone.
func (c *Client) ShareImage(object string, obj *media.Object, sel string) error {
	meta, packets, err := apps.ShareImage(object, obj, apps.SharePackets)
	if err != nil {
		return err
	}
	// Local state first.
	c.viewer.Announce(meta)
	for i, p := range packets {
		if err := c.viewer.AddPacket(object, i, p); err != nil {
			return err
		}
	}

	s := c.pub.Get().(*publishScratch)
	defer c.pub.Put(s)
	announce := c.stamp(s, message.KindEvent, sel, message.AttrsOf(obj.Attrs().Merge(selector.Attributes{
		message.AttrApp:    selector.S(apps.AppImageViewer),
		message.AttrObject: selector.S(object),
	})), apps.EncodeImageMeta(meta))
	shareID := obs.MsgID(announce.Sender, announce.Seq)
	obs.AppendHop(shareID, c.ID(), obs.StagePublish)
	psp := obs.StartStage(shareID, obs.StagePublish)
	if err := c.multicast(announce); err != nil {
		if psp.Active() {
			psp.EndErr("announce: " + err.Error())
		}
		return err
	}
	psp.End()

	// Send-side adaptation: when receivers have reported loss, there is
	// no point transmitting tail packets nobody can use — the sender
	// truncates the progressive stream itself.
	if budget := c.sendBudget(len(packets)); budget < len(packets) {
		if obs.Enabled() {
			obs.Note(shareID, obs.StageRTP,
				fmt.Sprintf("send-side truncation to %d/%d packets", budget, len(packets)))
		}
		packets = packets[:budget]
		c.stats.truncated.Add(1)
	}
	obs.AppendHop(shareID, c.ID(), obs.StageRTP)
	rsp := obs.StartStage(shareID, obs.StageRTP)
	// Every packet is framed into the scratch's buffer and sent as its
	// message, attributes rewritten per packet: multicast envelopes the
	// message by copying it into the datagrams, and nothing keeps m, its
	// attributes or its body once it returns (the session record keeps
	// only scalars).
	s.attrs = [4]message.Attr{
		{Name: message.AttrApp, Value: selector.S(apps.AppImageViewer)},
		{Name: message.AttrLevel},
		{Name: message.AttrMedia, Value: selector.S(string(media.KindImage))},
		{Name: message.AttrObject, Value: selector.S(object)},
	}
	for i, p := range packets {
		pkt := c.rtpSend.Next(uint32(c.clk.Now().UnixMilli()), i == len(packets)-1, p)
		s.attrs[1].Value = selector.N(float64(i))
		s.buf = pkt.AppendMarshal(s.buf[:0])
		m := c.stamp(s, message.KindData, sel, s.attrs[:], s.buf)
		if err := c.multicast(m); err != nil {
			if rsp.Active() {
				rsp.EndErr("rtp send: " + err.Error())
			}
			return err
		}
	}
	rsp.End()
	return nil
}

// AnnounceProfile publishes the client's current interests and
// preferences as a profile message — unicast to one peer (typically
// the base station managing QoS on this client's behalf) or, with
// to == "", multicast to the session.  A thin client running low on
// power announces {"modality": "text"} this way and the base station
// degrades its downlink accordingly.
func (c *Client) AnnounceProfile(to string) error {
	snap := c.k.pm.Snapshot()
	attrs := make([]message.Attr, 0, len(snap.Interests)+len(snap.Preferences))
	for k, v := range snap.Interests {
		attrs = append(attrs, message.Attr{Name: profile.SectionInterest + "." + k, Value: v})
	}
	for k, v := range snap.Preferences {
		attrs = append(attrs, message.Attr{Name: profile.SectionPreference + "." + k, Value: v})
	}
	slices.SortFunc(attrs, func(a, b message.Attr) int { return strings.Compare(a.Name, b.Name) })
	m := &message.Message{
		Kind:      message.KindProfile,
		Sender:    c.ID(),
		Seq:       c.k.ctrlSeq.Add(1),
		Timestamp: c.clk.Now(),
	}
	m.SetAttrs(attrs)
	if to == "" {
		return c.multicast(m)
	}
	return c.k.tx.Deliver(to, m)
}

// --- Receiving ---

// HandlePacket takes one datagram off the substrate: the kernel
// unwraps, orders and matches it, and what it delivers reaches the
// applications.
func (c *Client) HandlePacket(pkt transport.Packet) {
	c.kmu.Lock()
	c.k.HandlePacket(pkt)
	c.kmu.Unlock()
}

// Poll runs the client's timers at now: gap repair's NACKs and abandons
// under kmu and, once per AdaptInterval, outside it, one adaptation and
// the reception reports, both from one snapshot of the statistics.
func (c *Client) Poll(now time.Time) {
	c.kmu.Lock()
	c.k.Poll(now)
	c.kmu.Unlock()
	if now.Before(c.nextAdapt) {
		return
	}
	if c.nextAdapt = c.nextAdapt.Add(AdaptInterval); !c.nextAdapt.After(now) {
		c.nextAdapt = now.Add(AdaptInterval)
	}
	streams := c.receptionStats()
	_, _ = c.adapt(streams) // a failed sample counts in Stats.SampleErrors
	c.sendReceptionReports(streams)
}

// deliver is the kernel's Deliver effect: apply one admitted, ordered
// event or data message to the applications (kmu held).
func (c *Client) deliver(m *message.Message) {
	if m.Kind == message.KindEvent {
		c.handleEvent(m)
	} else {
		c.handleData(m)
	}
	c.observeDeliverySLO(m)
}

// control is the kernel's Control effect: RTCP feedback and lock
// notifications; other control traffic belongs to coordinators and
// base stations.
func (c *Client) control(m *message.Message) {
	if !c.handleRTCPReport(m) {
		c.handleLockControl(m)
	}
}

// observeDeliverySLO feeds one delivery's publish-to-apply latency
// into the SLO engine.  Repair-released frames pass through here too,
// so a repaired gap shows up as the high delivery latency it actually
// cost the user.  One atomic load and no clock read while SLO
// monitoring is off.
func (c *Client) observeDeliverySLO(m *message.Message) {
	if !slo.Enabled() || m.Timestamp.IsZero() {
		return
	}
	now := c.clk.Now()
	slo.ObserveDelivery(c.ID(), now.Sub(m.Timestamp), now)
}

func (c *Client) handleEvent(m *message.Message) {
	app, _ := m.Attr(message.AttrApp)
	switch app.Str() {
	case apps.AppChat:
		if err := c.chat.Apply(m.Sender, m.Body); err != nil {
			c.stats.errors.Add(1)
			return
		}
	case apps.AppWhiteboard:
		if err := c.wb.Apply(m.Body); err != nil {
			c.stats.errors.Add(1)
			return
		}
	case apps.AppImageViewer:
		meta, err := apps.DecodeImageMeta(m.Body)
		if err != nil {
			c.stats.errors.Add(1)
			return
		}
		// Chunks that overtook the announce were parked in the viewer
		// and count now that they join an announced share.
		c.stats.data.Add(uint64(c.viewer.Announce(meta)))
	case apps.AppMedia:
		if err := c.inbox.Apply(m.Sender, m.Body); err != nil {
			c.stats.errors.Add(1)
			return
		}
	default:
		c.stats.errors.Add(1)
		if obs.Enabled() {
			obs.Drop(obs.MsgID(m.Sender, m.Seq), obs.StageDeliver,
				c.ID()+": unknown app "+app.Str())
		}
		return
	}
	c.stats.received.Add(1)
}

func (c *Client) handleData(m *message.Message) {
	app, _ := m.Attr(message.AttrApp)
	if app.Str() != apps.AppImageViewer {
		c.stats.errors.Add(1)
		return
	}
	object, ok := m.Attr(message.AttrObject)
	if !ok {
		c.stats.errors.Add(1)
		return
	}
	level, _ := m.Attr(message.AttrLevel)
	chunk, ok := level.Whole()
	if !ok {
		c.stats.errors.Add(1)
		return
	}
	pkt, err := rtp.Unmarshal(m.Body)
	if err != nil {
		c.stats.errors.Add(1)
		return
	}
	obs.AppendHop(obs.MsgID(m.Sender, m.Seq), c.ID(), obs.StageRTP)
	// Track per-sender reception statistics (loss, jitter) — the
	// RTP/RTCP layer's receiver role.
	c.rtpMu.Lock()
	recv, okR := c.rtpRecv[m.Sender]
	if !okR {
		recv = rtp.NewReceiver(64)
		c.rtpRecv[m.Sender] = recv
	}
	c.rtpMu.Unlock()
	now := c.clk.Now()
	recv.Push(pkt, uint32(now.UnixMilli()))

	joined, err := c.viewer.AddChunk(object.Str(), int(chunk), pkt)
	switch {
	case err != nil:
		c.stats.errors.Add(1)
		if obs.Enabled() {
			obs.Drop(obs.MsgID(m.Sender, m.Seq), obs.StageDeliver,
				c.ID()+": data packet rejected: "+err.Error())
		}
	case joined:
		c.stats.data.Add(1)
	case obs.Enabled(): // parked in the viewer, or dropped at its parking bounds
		obs.Note(obs.MsgID(m.Sender, m.Seq), obs.StageReorder,
			c.ID()+": packet overtook announce of "+object.Str())
	}
}

// streamStats is one sender's data stream as this client receives it.
type streamStats struct {
	sender string
	recv   *rtp.Receiver
	rtp.Stats
}

// receptionStats snapshots every sender's reception statistics in
// sender order, so what is summed or sent from them does not depend on
// map order.
func (c *Client) receptionStats() []streamStats {
	c.rtpMu.Lock()
	defer c.rtpMu.Unlock()
	streams := make([]streamStats, 0, len(c.rtpRecv))
	for sender, r := range c.rtpRecv {
		streams = append(streams, streamStats{sender, r, r.Snapshot()})
	}
	slices.SortFunc(streams, func(a, b streamStats) int { return strings.Compare(a.sender, b.sender) })
	return streams
}

// lossFraction is the share of expected packets not received, counting
// unique packets so duplicate deliveries cannot deflate it.
func lossFraction(expected, uniq uint64) float64 {
	if uniq >= expected {
		return 0
	}
	return float64(expected-uniq) / float64(expected)
}

// receptionQuality reads the network state the engine adapts to off
// one snapshot of the streams: the data-packet loss fraction across
// every sender and their mean RTP interarrival jitter, in the arrival
// clock's units (milliseconds here).  ok is false with no data streams.
func receptionQuality(streams []streamStats) (loss, jitter float64, ok bool) {
	if len(streams) == 0 {
		return 0, 0, false
	}
	var expected, uniq uint64
	for _, st := range streams {
		expected += st.ExpectedTotal
		uniq += st.Unique
		jitter += st.Jitter
	}
	return lossFraction(expected, uniq), jitter / float64(len(streams)), true
}

// SampleQoS feeds the client's transport-level reception quality into
// the QoS gauge set: per-sender RTCP-style loss fraction and
// interarrival jitter, plus the aggregate loss fraction the inference
// engine adapts to.  The signature matches obs.SamplerFunc so the
// telemetry tick can sample the client directly.
func (c *Client) SampleQoS(set func(name string, value float64)) {
	streams := c.receptionStats()
	for _, st := range streams {
		label := `{client="` + metrics.EscapeLabel(c.ID()) + `",sender="` + metrics.EscapeLabel(st.sender) + `"}`
		set("rtp_loss_fraction"+label, lossFraction(st.ExpectedTotal, st.Unique))
		set("rtp_jitter"+label, st.Jitter)
	}
	if loss, _, ok := receptionQuality(streams); ok {
		set(`client_loss_fraction{client="`+metrics.EscapeLabel(c.ID())+`"}`, loss)
		slo.ObserveLoss(c.ID(), loss, c.clk.Now())
	}
}

// ReceptionReport returns the RTP-level reception statistics for a
// sender's data stream.
func (c *Client) ReceptionReport(sender string) (rtp.Stats, bool) {
	c.rtpMu.Lock()
	defer c.rtpMu.Unlock()
	r, ok := c.rtpRecv[sender]
	if !ok {
		return rtp.Stats{}, false
	}
	return r.Snapshot(), true
}

// --- Adaptation ---

// AdaptOnce runs one adaptation cycle now, as Poll does every
// AdaptInterval, and returns the decision taken.
func (c *Client) AdaptOnce() (inference.Decision, error) {
	return c.adapt(c.receptionStats())
}

// adapt samples system state (via the SNMP monitor when configured),
// folds it and the streams' reception quality into the profile (state
// equal to the profile's leaves it untouched), decides through the
// engine and configures the viewer.  A failed sample keeps the previous
// decision and counts in Stats.SampleErrors.
func (c *Client) adapt(streams []streamStats) (inference.Decision, error) {
	var state selector.Attributes
	if c.cfg.Monitor != nil {
		sample, err := c.cfg.Monitor.Sample(c.cfg.monitorParams...)
		if err != nil {
			c.stats.sampleErrors.Add(1)
			return inference.Decision{}, fmt.Errorf("core: state sample: %w", err)
		}
		state = make(selector.Attributes, len(sample)+2)
		for k, v := range sample {
			state.SetNumber(k, v)
		}
	} else {
		state = c.k.pm.Snapshot().State // a deep copy: ours to extend
	}
	// Fold in transport-level reception quality: the RTP layer's loss
	// and jitter accounting is part of the network state the engine
	// (and the QoS contract) adapts to.
	if loss, jitter, ok := receptionQuality(streams); ok {
		state.SetNumber(inference.StateLoss, loss)
		state.SetNumber("jitter", jitter)
		slo.ObserveLoss(c.ID(), loss, c.clk.Now())
	}

	// Fold the observed state into the profile (it is part of the
	// client's selectable identity).
	kvs := make([]profile.StateKV, 0, len(state))
	for k, v := range state {
		kvs = append(kvs, profile.StateKV{Name: k, V: v})
	}
	c.k.pm.UpdateStates(kvs)

	d := c.engine.Decide(state)
	c.viewer.SetBudget(d.EffectiveBudget(apps.SharePackets))
	if d.Modality != "" {
		modality := selector.S(string(d.Modality))
		if flat, _ := c.k.pm.FlatSnapshot(); !flat[profile.SectionPreference+".modality"].Equal(modality) {
			c.k.pm.SetPreference("modality", modality)
		}
	}

	c.mu.Lock()
	c.lastDecision = d
	c.mu.Unlock()
	return d, nil
}
