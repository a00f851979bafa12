package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestSenderAdaptsToReceiverReports: after a receiver reports heavy
// loss, the sender transmits fewer packets per share — reducing the
// information transferred rather than wasting the path.  Round 2 goes
// out over a healed link, so what bob receives is what alice sent.
func TestSenderAdaptsToReceiverReports(t *testing.T) {
	net := newVNet(t, 121)
	a, b := net.client("alice", Config{}), net.client("bob", Config{})
	net.SetLink("alice", "bob", transport.Link{Loss: 0.5})

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
	net.settle()

	// Bob's tick reports his reception quality; the report crosses the
	// link back to alice, which loses nothing.
	net.clk.Advance(AdaptInterval)
	worst := a.WorstPeerLoss()
	if worst <= 0 {
		t.Fatal("no loss registered in bob's reports")
	}

	// Round 2: alice truncates her transmissions.
	budget := a.sendBudget(16)
	if budget >= 16 {
		t.Fatalf("send budget %d despite %.0f%% reported loss", budget, worst*100)
	}
	net.SetLink("alice", "bob", transport.Link{})
	if err := a.ShareImage("r2", obj, ""); err != nil {
		t.Fatal(err)
	}
	net.settle()
	st, err := b.Viewer().Stats("r2")
	if err != nil {
		t.Fatalf("bob holds no r2 over the healed link: %v", err)
	}
	if st.PacketsReceived != budget {
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
	a, b, net := newPair(t)

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
	net.settle()
	if st, err := b.Viewer().Stats("full"); err != nil || st.PacketsReceived != 16 {
		t.Errorf("bob holds the share as %+v (%v), want all 16 packets", st, err)
	}
}

// TestReportStateExpiry: stale reports stop throttling the sender.
func TestReportStateExpiry(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	rs := newReportState(clk)
	rs.record("p", 0.8)
	if rs.worst() != 0.8 {
		t.Fatalf("worst = %g", rs.worst())
	}
	clk.Advance(reportTTL)
	if rs.worst() != 0.8 {
		t.Errorf("report gone at its TTL: %g", rs.worst())
	}
	clk.Advance(time.Nanosecond)
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
	a := newVNet(t, 124).client("alice", Config{})

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
	net := newVNet(t, 123)
	a, b, c := net.client("alice", Config{}), net.client("bob", Config{}), net.client("carol", Config{})

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
	net.settle()
	if got := c.Stats().DataPackets; got != 32 {
		t.Fatalf("carol took %d data packets, want 32", got)
	}
	net.clk.Advance(AdaptInterval) // carol's tick reports
	if c.Stats().ReportsSent != 2 {
		t.Fatalf("carol sent %d reports, want one per sender", c.Stats().ReportsSent)
	}
	// Clean links: zero loss reported either way.
	if a.WorstPeerLoss() != 0 || b.WorstPeerLoss() != 0 {
		t.Errorf("clean links reported loss: %g, %g", a.WorstPeerLoss(), b.WorstPeerLoss())
	}
}

// TestLossBudgetIsDecides: the budget a sender reads off the worst
// reported loss is the one the policy's Decide gives for that loss, on
// a grid of losses and share sizes, clamped to at least the base layer.
func TestLossBudgetIsDecides(t *testing.T) {
	for total := 1; total <= 20; total++ {
		for i := 0; i <= 200; i++ {
			loss := float64(i) / 200
			want := total
			if loss > 0 {
				state := selector.Attributes{inference.StateLoss: selector.N(loss)}
				want = max(inference.Params{MaxPackets: total}.Decide(state).EffectiveBudget(total), 1)
			}
			if got := lossBudget(total, loss); got != want {
				t.Errorf("lossBudget(%d, %g) = %d, Decide gives %d", total, loss, got, want)
			}
		}
	}
}
