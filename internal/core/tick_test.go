package core

import (
	"fmt"
	"testing"

	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestTickReportsLoss: after a lossy share and one AdaptInterval the
// receiver has reported, so the sender knows its loss, and nobody asked
// for a report.  A stream that then goes silent is not reported again:
// an empty interval would read as no loss and lift the sender's
// throttle.
func TestTickReportsLoss(t *testing.T) {
	n := newVNet(t, 121)
	a, b := n.client("alice", Config{}), n.client("bob", Config{})
	n.SetLink("alice", "bob", transport.Link{Loss: 0.5})
	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 13), "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.ShareImage(fmt.Sprintf("s-%d", i), obj, ""); err != nil {
			t.Fatal(err)
		}
	}
	n.clk.Advance(AdaptInterval)
	worst := a.WorstPeerLoss()
	if worst <= 0 {
		t.Fatalf("alice's worst peer loss %g one interval after a lossy share, want > 0", worst)
	}
	if got := b.Stats().ReportsSent; got != 1 {
		t.Fatalf("bob sent %d reports, want one for alice's stream", got)
	}

	n.clk.Advance(2 * AdaptInterval)
	if got := b.Stats().ReportsSent; got != 1 {
		t.Errorf("bob sent %d reports with alice silent, want still 1", got)
	}
	if got := a.WorstPeerLoss(); got != worst {
		t.Errorf("alice's worst peer loss moved %g -> %g with nothing sent", worst, got)
	}
}

// TestIdleTickLeavesProfileAlone: a tick that samples what the profile
// already holds changes nothing in it — not its version, so not its
// flattened view either — and a decided modality is written once.
func TestIdleTickLeavesProfileAlone(t *testing.T) {
	host, mon := monitoredHost("idle-host")
	host.Set(hostagent.ParamCPULoad, 20)
	host.Set(hostagent.ParamBandwidth, 8_000) // under the text threshold
	n := newVNet(t, 6)
	c := n.client("c", Config{Monitor: mon,
		monitorParams: []string{hostagent.ParamCPULoad, hostagent.ParamBandwidth}})
	v0 := c.Profile().Snapshot().Version

	n.clk.Advance(AdaptInterval)
	v1 := c.Profile().Snapshot().Version
	if v1 == v0 {
		t.Fatal("the first tick folded nothing into the profile")
	}
	if pref := c.Profile().Snapshot().Preferences["modality"]; pref.Str() != string(media.KindText) {
		t.Fatalf("modality preference %v after a low-bandwidth tick, want text", pref)
	}
	_, gen := c.Profile().FlatSnapshot()

	n.clk.Advance(2 * AdaptInterval)
	if v := c.Profile().Snapshot().Version; v != v1 {
		t.Errorf("two idle ticks moved the profile version %d -> %d", v1, v)
	}
	if _, g := c.Profile().FlatSnapshot(); g != gen {
		t.Errorf("two idle ticks rebuilt the flattened profile: generation %d -> %d", gen, g)
	}
	if st := c.Stats(); st.SampleErrors != 0 {
		t.Errorf("%d failed samples on a healthy host", st.SampleErrors)
	}
}
