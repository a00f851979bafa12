package basestation

import (
	"testing"
	"time"

	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/wavelet"
)

// TestWirelessPreferenceAnnouncement: a wireless client low on battery
// switches to text mode and announces the preference over RF; the base
// station honors it on the next downlink despite an excellent channel.
func TestWirelessPreferenceAnnouncement(t *testing.T) {
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 20, 1) // SIR admits the full image

	if a, _ := r.bs.Assess("w1"); a.Tier < 3 {
		t.Skipf("tier = %s", a.Tier)
	}

	// The client flips to text mode and announces it to its BS.
	w.Profile().SetPreference("modality", selector.S("text"))
	if err := w.AnnounceProfile("bs"); err != nil {
		t.Fatal(err)
	}
	// The announcement lands in the BS registry.
	waitFor(t, "preference at BS", func() bool {
		p, ok := r.bs.reg.Get("w1")
		return ok && p.Preferences["modality"].Str() == "text"
	})

	// A wired share now arrives as text.
	obj, err := media.EncodeImage(wavelet.Circles(48, 48), "site chart")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wired.ShareImage("chart-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "text downlink", func() bool { return w.Inbox().Len() >= 1 })
	got, _ := w.Inbox().Latest()
	if got.Object.Kind != media.KindText {
		t.Errorf("downlink kind = %s, want text", got.Object.Kind)
	}
	if string(got.Object.Data) != "site chart" {
		t.Errorf("downlink content = %q", got.Object.Data)
	}

	// Announcements from strangers are ignored.
	stranger, err := r.radioNet.Attach("stranger-2")
	if err != nil {
		t.Fatal(err)
	}
	_ = stranger
	before := len(r.bs.reg.IDs())
	time.Sleep(20 * time.Millisecond)
	if len(r.bs.reg.IDs()) != before {
		t.Error("stranger changed the registry")
	}
}

// TestLiteralProfileJoinsAndUpdates: a member joined with a profile
// literal (nil sections) is assessed, and a profile frame from the air
// can install an interest on it — neither may find a nil map.
func TestLiteralProfileJoinsAndUpdates(t *testing.T) {
	r := newRig(t, Config{})
	conn, err := r.radioNet.Attach("thin")
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewClient(conn, core.Config{})
	t.Cleanup(func() { w.Close() })
	if _, err := r.bs.Join(&profile.Profile{ID: "thin"}, 20, 1); err != nil {
		t.Fatal(err)
	}
	w.Profile().SetInterest("x", selector.S("y"))
	if err := w.AnnounceProfile("bs"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "interest at BS", func() bool {
		p, ok := r.bs.reg.Get("thin")
		return ok && p.Interests["x"].Str() == "y"
	})
}
