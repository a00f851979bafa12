package core

import (
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// vnet is a discrete-event network on its own virtual clock.  The
// clients and coordinators seated on it run inline on the goroutine
// that drives clk, so a test acts, drives the clock once (settle, or
// clk.Advance(d)) and asserts once.  Every client ticks (AdaptInterval,
// or its repair poll), so the heap never drains: each drive is bounded.
type vnet struct {
	*transport.DESNet
	t   testing.TB
	clk *clock.Virtual
}

// settleTime outlasts every link delay in these tests (15 ms at most)
// and is well short of AdaptInterval.
const settleTime = 100 * time.Millisecond

// settle delivers what is in flight.
func (n *vnet) settle() { n.clk.Advance(settleTime) }

func newVNet(t testing.TB, seed int64) *vnet {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	n := &vnet{DESNet: transport.NewDESNet(transport.DESNetConfig{Seed: seed, Clock: clk}), t: t, clk: clk}
	t.Cleanup(n.Close)
	return n
}

// attach joins id as a channel-mode node.
func (n *vnet) attach(id string) transport.Conn {
	n.t.Helper()
	conn, err := n.Attach(id)
	if err != nil {
		n.t.Fatal(err)
	}
	return conn
}

// handler joins id as a handler-mode node: h runs for every delivery.
func (n *vnet) handler(id string, h func(transport.Packet)) transport.Conn {
	n.t.Helper()
	conn, err := n.AttachHandler(id, h)
	if err != nil {
		n.t.Fatal(err)
	}
	return conn
}

// client seats a client until the test ends.
func (n *vnet) client(id string, cfg Config) *Client {
	n.t.Helper()
	c := NewClient(n.attach(id), cfg)
	n.t.Cleanup(func() { c.Close() })
	return c
}

// coordinator seats the archiving coordinator as "coordinator".
func (n *vnet) coordinator(group session.Group) *Coordinator {
	n.t.Helper()
	c := NewCoordinator(n.attach("coordinator"), group)
	n.t.Cleanup(func() { c.Close() })
	return c
}

// monitoredHost is a simulated host and the Monitor a client samples it
// through, over the embedded SNMP agent.
func monitoredHost(id string) (*hostagent.Host, *hostagent.Monitor) {
	host := hostagent.NewHost(id)
	return host, &hostagent.Monitor{
		Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(host)}, snmp.V2c, "public"),
	}
}

// newPair seats alice and bob on a fresh network.
func newPair(t *testing.T) (*Client, *Client, *vnet) {
	t.Helper()
	n := newVNet(t, 1)
	return n.client("alice", Config{}), n.client("bob", Config{}), n
}

// TestClientStampsOnItsNetworksClock: a client built with an empty
// Config on a DESNet stamps what it sends with the network's virtual
// now, the clock its receivers measure delivery latency on.
func TestClientStampsOnItsNetworksClock(t *testing.T) {
	n := newVNet(t, 1)
	var stamps []time.Time
	un := message.NewUnwrapper()
	n.handler("listener", func(p transport.Packet) {
		frame, err := un.Unwrap(p.From, p.Data)
		if err != nil || frame == nil {
			t.Fatalf("unreadable datagram: %v", err)
		}
		m, err := message.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, m.Timestamp)
	})
	c := NewClient(n.attach("speaker"), Config{})
	t.Cleanup(func() { c.Close() })
	n.clk.Advance(42 * time.Second)
	want := n.clk.Now()
	if err := c.Say("stamp me", ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if len(stamps) != 1 || !stamps[0].Equal(want) {
		t.Errorf("stamps %v, want one at the network's now %v", stamps, want)
	}
}

// TestDeliverySLOOnVirtualTime: a client on a DESNet observes delivery
// latency at its network's instant, the one the SLO engine is polled
// at, so deliveries 10 ms late against a 1 ms objective violate it.
func TestDeliverySLOOnVirtualTime(t *testing.T) {
	eng := slo.Default()
	eng.SetDefaultSpec(slo.Spec{DeliveryP99: time.Millisecond})
	slo.SetEnabled(true)
	t.Cleanup(func() {
		slo.SetEnabled(false)
		eng.SetDefaultSpec(slo.Spec{})
	})
	clk := clock.NewVirtual(time.Time{})
	n := &vnet{DESNet: transport.NewDESNet(transport.DESNetConfig{
		Seed: 1, Clock: clk, DefaultLink: transport.Link{Delay: 10 * time.Millisecond},
	}), t: t, clk: clk}
	t.Cleanup(n.Close)
	a, b := n.client("slo-alice", Config{}), n.client("slo-bob", Config{})
	for i := 0; i < 20; i++ {
		if err := a.Say("late", ""); err != nil {
			t.Fatal(err)
		}
	}
	n.settle()
	if b.Chat().Len() != 20 {
		t.Fatalf("bob holds %d lines, want 20", b.Chat().Len())
	}
	eng.Poll(clk.Now())
	for _, st := range eng.Status() {
		if st.Client == "slo-bob" {
			if st.State != slo.StateViolated || st.Worst != slo.ObjDelivery {
				t.Errorf("bob is %v on %v (burn %.1f), want violated on delivery", st.State, st.Worst, st.BurnShort)
			}
			return
		}
	}
	t.Fatal("the engine holds no status for bob")
}

func TestChatExchange(t *testing.T) {
	a, b, n := newPair(t)
	// Bob is interested in text.
	b.Profile().SetInterest("media", selector.S("text"))

	if err := a.Say("hello collaboration", ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	lines := b.Chat().Lines()
	if len(lines) != 1 || lines[0].Sender != "alice" || lines[0].Text != "hello collaboration" {
		t.Errorf("bob's chat: %+v", lines)
	}
	// The sender's own repository has it too.
	if a.Chat().Len() != 1 {
		t.Error("sender state repository missing local action")
	}
}

func TestSemanticFiltering(t *testing.T) {
	a, b, n := newPair(t)
	b.Profile().SetInterest("media", selector.S("text"))
	b.Profile().SetInterest("topic", selector.S("logistics"))

	// Addressed to medical staff only: bob must filter it out.
	if err := a.Say("confidential", `topic == "medical"`); err != nil {
		t.Fatal(err)
	}
	// Addressed to logistics: bob accepts.
	if err := a.Say("trucks at gate 4", `topic == "logistics"`); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if st := b.Stats(); st.EventsFiltered != 1 || st.EventsReceived != 1 {
		t.Errorf("bob filtered %d and received %d events, want 1 and 1", st.EventsFiltered, st.EventsReceived)
	}
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != "trucks at gate 4" {
		t.Errorf("chat: %+v", b.Chat().Lines())
	}
}

func TestWhiteboardExchange(t *testing.T) {
	a, b, n := newPair(t)
	s := apps.Stroke{ID: 1, Color: 2, Width: 3,
		Points: []apps.Point{{X: 0, Y: 0}, {X: 5, Y: 5}}}
	if err := a.Draw(s, ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if b.Whiteboard().Len() != 1 {
		t.Fatalf("bob holds %d strokes, want 1", b.Whiteboard().Len())
	}
	got := b.Whiteboard().Strokes()[0]
	if got.ID != 1 || len(got.Points) != 2 {
		t.Errorf("stroke: %+v", got)
	}
}

func TestImageShareFullQuality(t *testing.T) {
	a, b, n := newPair(t)
	im := wavelet.Medical(64, 64, 3)
	obj, err := media.EncodeImage(im, "chest scan")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("img-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if st, err := b.Viewer().Stats("img-1"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("bob holds img-1 as %+v (%v), want 16 packets accepted", st, err)
	}
	res, err := b.Viewer().Render("img-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("unconstrained share should arrive losslessly")
	}
	if st := b.Stats(); st.DataPackets != 16 {
		t.Errorf("data packets = %d", st.DataPackets)
	}
	if rep, ok := b.ReceptionReport("alice"); !ok || rep.Received != 16 || rep.ExpectedTotal-rep.Unique != 0 {
		t.Errorf("rtp report: %+v ok=%v", rep, ok)
	}
}

// TestAdaptationLoopAgainstSNMP runs the full wired-client pipeline of
// the paper's first experiments: host workload → embedded SNMP agent →
// monitor → inference → image-viewer budget.  Nobody calls AdaptOnce:
// the client adapts to each load within one AdaptInterval, on its tick.
func TestAdaptationLoopAgainstSNMP(t *testing.T) {
	host, mon := monitoredHost("wired-host")
	n := newVNet(t, 2)
	a := n.client("alice", Config{})
	b := n.client("bob", Config{Monitor: mon})

	im := wavelet.Medical(64, 64, 5)
	obj, err := media.EncodeImage(im, "scan")
	if err != nil {
		t.Fatal(err)
	}

	// Low load: everything accepted.
	host.Set(hostagent.ParamCPULoad, 20)
	host.Set(hostagent.ParamPageFaults, 10)
	n.clk.Advance(AdaptInterval)
	if d := b.LastDecision(); d.EffectiveBudget(16) != 16 || len(d.Fired) == 0 {
		t.Fatalf("light-load budget = %d, rules %v; want 16 from a sampled host", d.EffectiveBudget(16), d.Fired)
	}
	if err := a.ShareImage("img-light", obj, ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if st, err := b.Viewer().Stats("img-light"); err != nil || st.PacketsReceived != 16 || st.PacketsAccepted != 16 {
		t.Errorf("light-load image: %+v (%v), want 16 received and accepted", st, err)
	}

	// Heavy load: the budget collapses and the viewer accepts less.
	host.Set(hostagent.ParamCPULoad, 95)
	host.Set(hostagent.ParamPageFaults, 90)
	n.clk.Advance(AdaptInterval)
	heavy := b.LastDecision().EffectiveBudget(16)
	if heavy >= 4 {
		t.Fatalf("heavy-load budget = %d, want small", heavy)
	}
	if err := a.ShareImage("img-heavy", obj, ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if st, err := b.Viewer().Stats("img-heavy"); err != nil || st.PacketsReceived != 16 || st.PacketsAccepted != heavy {
		t.Errorf("heavy-load image: %+v (%v), want 16 received and %d accepted", st, err, heavy)
	}
	// Quality degraded but the image still renders.
	res, err := b.Viewer().Render("img-heavy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Lossless && heavy < 16 {
		t.Error("partial acceptance cannot be lossless")
	}
	// The profile now carries the observed state, selectable by peers.
	if !profileMatches(b, `state.cpu-load >= 95`) {
		t.Error("state not folded into profile")
	}
	if b.LastDecision().Contract.Satisfied {
		// The default config has an empty contract; add one and re-check.
		t.Log("empty contract is always satisfied (expected)")
	}
}

func TestCloseSemantics(t *testing.T) {
	c := NewClient(newVNet(t, 4).attach("x"), Config{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := c.Say("after close", ""); err == nil {
		t.Error("send after close should fail")
	}
}

func TestMalformedTrafficCounted(t *testing.T) {
	n := newVNet(t, 5)
	raw := n.attach("raw")
	c := n.client("c", Config{})
	n.coordinator(session.Group{Objective: "malformed"})

	// Both receive kernels report what they cannot read into the one
	// process-wide family: an unknown envelope tag, then a whole-frame
	// envelope around bytes that are no frame.
	ctr := metrics.C(metrics.CtrDecodeErrors)
	base := ctr.Load()
	raw.Multicast([]byte("not a message"))
	n.settle()
	if got := c.Stats().DecodeErrors; got != 1 {
		t.Errorf("decode errors after the bad tag = %d, want 1", got)
	}
	raw.Multicast(message.WrapWhole([]byte("enveloped, still not a message")))
	n.settle()
	if got := c.Stats().DecodeErrors; got != 2 {
		t.Errorf("decode errors after the empty envelope = %d, want 2", got)
	}
	if c.Stats().EventsReceived != 0 {
		t.Error("garbage counted as event")
	}
	if got := ctr.Load() - base; got != 4 {
		t.Errorf("client and coordinator counted %d in %s, want 4", got, metrics.CtrDecodeErrors)
	}
}

// profileMatches evaluates a selector against c's current profile.
func profileMatches(c *Client, src string) bool {
	flat, _ := c.Profile().FlatSnapshot()
	return selector.MustCompile(src).Matches(flat)
}

// repairStatus snapshots c's per-sender gap-repair state.
func repairStatus(c *Client) map[string]RepairStatus {
	c.kmu.Lock()
	defer c.kmu.Unlock()
	return c.k.RepairStatus()
}
