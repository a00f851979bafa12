package core

import (
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// waitFor polls cond until it is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func newPair(t *testing.T) (*Client, *Client, *transport.SimNet) {
	t.Helper()
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 1})
	t.Cleanup(net.Close)
	ca, err := net.Attach("alice")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := net.Attach("bob")
	if err != nil {
		t.Fatal(err)
	}
	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, net
}

func TestChatExchange(t *testing.T) {
	a, b, _ := newPair(t)
	// Bob is interested in text.
	b.Profile().SetInterest("media", selector.S("text"))

	if err := a.Say("hello collaboration", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bob's chat line", func() bool { return b.Chat().Len() == 1 })
	lines := b.Chat().Lines()
	if lines[0].Sender != "alice" || lines[0].Text != "hello collaboration" {
		t.Errorf("line: %+v", lines[0])
	}
	// The sender's own repository has it too.
	if a.Chat().Len() != 1 {
		t.Error("sender state repository missing local action")
	}
}

func TestSemanticFiltering(t *testing.T) {
	a, b, _ := newPair(t)
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
	waitFor(t, "filtered + accepted", func() bool {
		st := b.Stats()
		return st.EventsFiltered == 1 && st.EventsReceived == 1
	})
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != "trucks at gate 4" {
		t.Errorf("chat: %+v", b.Chat().Lines())
	}
}

func TestWhiteboardExchange(t *testing.T) {
	a, b, _ := newPair(t)
	s := apps.Stroke{ID: 1, Color: 2, Width: 3,
		Points: []apps.Point{{X: 0, Y: 0}, {X: 5, Y: 5}}}
	if err := a.Draw(s, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bob's stroke", func() bool { return b.Whiteboard().Len() == 1 })
	got := b.Whiteboard().Strokes()[0]
	if got.ID != 1 || len(got.Points) != 2 {
		t.Errorf("stroke: %+v", got)
	}
}

func TestImageShareFullQuality(t *testing.T) {
	a, b, _ := newPair(t)
	im := wavelet.Medical(64, 64, 3)
	obj, err := media.EncodeImage(im, "chest scan")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("img-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all packets", func() bool {
		st, err := b.Viewer().Stats("img-1")
		return err == nil && st.PacketsAccepted == 16
	})
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
// monitor → inference → image-viewer budget.
func TestAdaptationLoopAgainstSNMP(t *testing.T) {
	host := hostagent.NewHost("wired-host")
	agent := hostagent.NewAgent(host)
	mon := &hostagent.Monitor{
		Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "public"),
	}

	net := transport.NewSimNet(transport.SimNetConfig{Seed: 2})
	defer net.Close()
	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("bob")
	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{Monitor: mon})
	defer a.Close()
	defer b.Close()

	im := wavelet.Medical(64, 64, 5)
	obj, err := media.EncodeImage(im, "scan")
	if err != nil {
		t.Fatal(err)
	}

	// Low load: everything accepted.
	host.Set(hostagent.ParamCPULoad, 20)
	host.Set(hostagent.ParamPageFaults, 10)
	d, err := b.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if d.EffectiveBudget(16) != 16 {
		t.Fatalf("light-load budget = %d", d.EffectiveBudget(16))
	}
	if err := a.ShareImage("img-light", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "light-load image", func() bool {
		st, err := b.Viewer().Stats("img-light")
		return err == nil && st.PacketsReceived == 16
	})
	st, _ := b.Viewer().Stats("img-light")
	if st.PacketsAccepted != 16 {
		t.Errorf("light-load accepted = %d", st.PacketsAccepted)
	}

	// Heavy load: the budget collapses and the viewer accepts less.
	host.Set(hostagent.ParamCPULoad, 95)
	host.Set(hostagent.ParamPageFaults, 90)
	d, err = b.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	heavy := d.EffectiveBudget(16)
	if heavy >= 4 {
		t.Fatalf("heavy-load budget = %d, want small", heavy)
	}
	if err := a.ShareImage("img-heavy", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "heavy-load image", func() bool {
		st, err := b.Viewer().Stats("img-heavy")
		return err == nil && st.PacketsReceived == 16
	})
	st, _ = b.Viewer().Stats("img-heavy")
	if st.PacketsAccepted != heavy {
		t.Errorf("heavy-load accepted = %d, want %d", st.PacketsAccepted, heavy)
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
	if d.Contract.Satisfied {
		// The default config has an empty contract; add one and re-check.
		t.Log("empty contract is always satisfied (expected)")
	}
}

func TestLamportClockAdvancesOnReceive(t *testing.T) {
	a, b, _ := newPair(t)
	for i := 0; i < 5; i++ {
		if err := a.Say("tick", ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "bob receives", func() bool { return b.Chat().Len() == 5 })
	if b.k.lamport.Now() < 5 {
		t.Errorf("bob's clock = %d, want >= 5", b.k.lamport.Now())
	}
}

func TestCloseSemantics(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 4})
	defer net.Close()
	conn, _ := net.Attach("x")
	c := NewClient(conn, Config{})
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
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 5})
	defer net.Close()
	raw, _ := net.Attach("raw")
	conn, _ := net.Attach("c")
	c := NewClient(conn, Config{})
	defer c.Close()

	cconn, _ := net.Attach("coordinator")
	coord := NewCoordinator(cconn, session.Group{Objective: "malformed"})
	defer coord.Close()

	// Both receive kernels report what they cannot read into the one
	// process-wide family: an unknown envelope tag, then a whole-frame
	// envelope around bytes that are no frame.
	ctr := metrics.C(metrics.CtrDecodeErrors)
	base := ctr.Load()
	raw.Multicast([]byte("not a message"))
	waitFor(t, "decode error counted", func() bool { return c.Stats().DecodeErrors == 1 })
	raw.Multicast(message.WrapWhole([]byte("enveloped, still not a message")))
	waitFor(t, "second decode error counted", func() bool { return c.Stats().DecodeErrors == 2 })
	if c.Stats().EventsReceived != 0 {
		t.Error("garbage counted as event")
	}
	waitFor(t, "client and coordinator counting in "+metrics.CtrDecodeErrors, func() bool { return ctr.Load() == base+4 })
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
