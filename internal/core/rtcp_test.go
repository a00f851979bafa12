package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestSenderAdaptsToReceiverReports: after a receiver reports heavy
// loss, the sender transmits fewer packets per share — reducing the
// information transferred rather than wasting the path.
func TestSenderAdaptsToReceiverReports(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 121})
	defer net.Close()
	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("bob")
	net.SetLink("alice", "bob", transport.Link{Loss: 0.5})

	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{})
	defer a.Close()
	defer b.Close()

	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 13), "x")
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: no feedback yet; alice sends everything.
	for i := 0; i < 4; i++ {
		if err := a.ShareImage(fmt.Sprintf("r1-%d", i), obj, ""); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)

	// Bob reports his reception quality (the report itself crosses the
	// lossy link; retry until it lands).
	deadline := time.Now().Add(3 * time.Second)
	for a.WorstPeerLoss() == 0 && time.Now().Before(deadline) {
		if err := b.SendReceptionReports(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	worst := a.WorstPeerLoss()
	if worst <= 0 {
		t.Skip("no loss registered in reports this run")
	}

	// Round 2: alice truncates her transmissions.
	budget := a.sendBudget(16)
	if budget >= 16 {
		t.Fatalf("send budget %d despite %.0f%% reported loss", budget, worst*100)
	}
	if err := a.ShareImage("r2", obj, ""); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	st, err := b.Viewer().Stats("r2")
	if err != nil {
		t.Skip("announce lost this run")
	}
	if st.PacketsReceived > budget {
		t.Errorf("bob received %d packets, sender budget was %d", st.PacketsReceived, budget)
	}
	// The sender's own local viewer still has everything.
	ownStats, _ := a.Viewer().Stats("r2")
	if ownStats.PacketsAccepted != 16 {
		t.Errorf("sender's local state truncated: %+v", ownStats)
	}
}

// TestSenderAdaptationCanBeDisabled: send-side adaptation is driven by
// reports alone — a sender nobody reports to transmits every packet.
func TestSenderAdaptationCanBeDisabled(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 122})
	defer net.Close()
	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("bob")
	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{})
	defer a.Close()
	defer b.Close()

	if got := a.sendBudget(16); got != 16 {
		t.Errorf("budget with no reports = %d, want 16", got)
	}

	obj, err := media.EncodeImage(wavelet.Circles(32, 32), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("full", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full delivery", func() bool {
		st, err := b.Viewer().Stats("full")
		return err == nil && st.PacketsReceived == 16
	})
}

// TestReportStateExpiry: stale reports stop throttling the sender.
func TestReportStateExpiry(t *testing.T) {
	rs := newReportState(nil)
	rs.record("p", 0.8)
	if rs.worst() != 0.8 {
		t.Fatalf("worst = %g", rs.worst())
	}
	// Force expiry.
	rs.mu.Lock()
	rs.expires["p"] = time.Now().Add(-time.Second)
	rs.mu.Unlock()
	if rs.worst() != 0 {
		t.Errorf("expired report still counted: %g", rs.worst())
	}
	// Multiple reporters: the worst wins.
	rs.record("p1", 0.2)
	rs.record("p2", 0.6)
	rs.record("p3", 0.4)
	if rs.worst() != 0.6 {
		t.Errorf("worst = %g, want 0.6", rs.worst())
	}
}

// TestRTCPNaNLossIsUnobserved: a report whose loss fraction is NaN
// says nothing, so it leaves the peer's last real report in force.  It
// used to overwrite it, and worst() skips a NaN, so a peer that
// reported 0.5 and then NaN un-throttled the sender.
func TestRTCPNaNLossIsUnobserved(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 124})
	defer net.Close()
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	for _, loss := range []float64{0.5, math.NaN()} {
		frame, err := message.Encode(&message.Message{Kind: message.KindControl, Sender: "bob",
			Attrs: selector.Attributes{
				attrCtrl:     selector.S(ctrlRTCPReport),
				attrSubject:  selector.S("alice"),
				attrFracLost: selector.N(loss),
			}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := message.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !a.handleRTCPReport(m) {
			t.Fatalf("report with fraction-lost %g not consumed", loss)
		}
	}
	if got := a.WorstPeerLoss(); got != 0.5 {
		t.Errorf("WorstPeerLoss after 0.5 then NaN = %g, want 0.5", got)
	}
}

// TestRTCPReportAboutOthersIgnored: a report about a different sender
// does not throttle this client.
func TestRTCPReportAboutOthersIgnored(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 123})
	defer net.Close()
	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("bob")
	cc, _ := net.Attach("carol")
	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{})
	c := NewClient(cc, Config{})
	defer a.Close()
	defer b.Close()
	defer c.Close()

	obj, err := media.EncodeImage(wavelet.Circles(32, 32), "x")
	if err != nil {
		t.Fatal(err)
	}
	// Carol receives data from both alice and bob, then reports.
	if err := a.ShareImage("ia", obj, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.ShareImage("ib", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "carol's data", func() bool { return c.Stats().DataPackets == 32 })
	if err := c.SendReceptionReports(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// Clean links: zero loss reported either way.
	if a.WorstPeerLoss() != 0 || b.WorstPeerLoss() != 0 {
		t.Errorf("clean links reported loss: %g, %g", a.WorstPeerLoss(), b.WorstPeerLoss())
	}
}
