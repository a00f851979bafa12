package basestation

import (
	"slices"
	"sync"
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

// TestWirelessPreferenceAnnouncement: a wireless client low on battery
// switches to text mode and announces the preference over RF; the base
// station honors it on the next downlink despite an excellent channel.
func TestWirelessPreferenceAnnouncement(t *testing.T) {
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 20, 1) // SIR admits the full image

	if a, _ := r.bs.Assess("w1"); a.Tier != radio.TierImage {
		t.Fatalf("tier = %s, want image", a.Tier)
	}

	// The client flips to text mode and announces it to its BS.
	w.Profile().SetPreference("modality", selector.S("text"))
	if err := w.AnnounceProfile("bs"); err != nil {
		t.Fatal(err)
	}
	// The announcement lands in the BS registry.
	r.settle()
	if flat, _, _ := r.bs.reg.FlatSnapshot("w1"); flat[profile.SectionPreference+".modality"].Str() != "text" {
		t.Fatalf("the station holds modality %v for w1, want text", flat[profile.SectionPreference+".modality"])
	}

	// A wired share now arrives as text.
	obj, err := media.EncodeImage(wavelet.Circles(48, 48), "site chart")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wired.ShareImage("chart-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if n := w.Inbox().Len(); n != 1 {
		t.Fatalf("w1's inbox holds %d items, want the text rendition", n)
	}
	got, _ := w.Inbox().Latest()
	if got.Object.Kind != media.KindText {
		t.Errorf("downlink kind = %s, want text", got.Object.Kind)
	}
	if string(got.Object.Data) != "site chart" {
		t.Errorf("downlink content = %q", got.Object.Data)
	}

	// Announcements from strangers are ignored.
	stranger := r.client(t, seat(t, r.radioNet, "stranger-2"))
	stranger.Profile().SetPreference("modality", selector.S("text"))
	if err := stranger.AnnounceProfile("bs"); err != nil {
		t.Fatal(err)
	}
	before := r.bs.reg.IDs()
	r.settle()
	if got := r.bs.reg.IDs(); !slices.Equal(got, before) {
		t.Errorf("stranger changed the registry: %v, then %v", before, got)
	}
}

// TestLiteralProfileJoinsAndUpdates: a member joined with a profile
// literal (nil sections) is assessed, and a profile frame from the air
// can install an interest on it — neither may find a nil map.
func TestLiteralProfileJoinsAndUpdates(t *testing.T) {
	r := newRig(t, Config{})
	w := r.client(t, seat(t, r.radioNet, "thin"))
	if _, err := r.bs.Join(&profile.Profile{ID: "thin"}, 20, 1); err != nil {
		t.Fatal(err)
	}
	w.Profile().SetInterest("x", selector.S("y"))
	if err := w.AnnounceProfile("bs"); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if flat, _, _ := r.bs.reg.FlatSnapshot("thin"); flat[profile.SectionInterest+".x"].Str() != "y" {
		t.Errorf("the station holds interest x = %v for thin, want y", flat[profile.SectionInterest+".x"])
	}
}

// TestAnnouncementRacingAssessment: a member's profile announcement
// (the radio segment's goroutine) and its re-assessment (the control
// plane, here a goroutine alternating SetDistance and Assess) write
// the same stored profile.  Both go through the member's one Manager,
// so neither reinstalls what the other replaced: the version a reader
// sees never goes backwards, and the last announced interest and the
// last assessed distance both survive.
func TestAnnouncementRacingAssessment(t *testing.T) {
	bs := newBareCell(t, 0, 1).bs
	const rounds = 2000
	frames := make([][]byte, rounds)
	var env message.Enveloper
	for i := range frames {
		d, err := env.WrapMessage(&message.Message{
			Kind: message.KindProfile, Sender: "m00", Seq: uint32(i + 1),
			Attrs: selector.Attributes{profile.SectionInterest + ".n": selector.N(float64(i))},
		})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = d[0]
	}

	var writers, reader sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			if err := bs.SetDistance("m00", 30+float64(i%2)); err != nil {
				t.Error(err)
				return
			}
			if _, err := bs.Assess("m00"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for _, f := range frames {
			bs.handleWireless(transport.Packet{From: "m00", Data: f})
		}
	}()
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			_, ver, _ := bs.reg.FlatSnapshot("m00")
			if ver < last {
				t.Errorf("version went backwards: %d → %d", last, ver)
				return
			}
			last = ver
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()

	flat, _, _ := bs.reg.FlatSnapshot("m00")
	if n := flat[profile.SectionInterest+".n"].Num(); n != rounds-1 {
		t.Errorf("announced interest = %g, want %d", n, rounds-1)
	}
	if d := flat[profile.SectionState+"."+registry.StateDistance].Num(); d != 31 {
		t.Errorf("stored distance = %g, want the last assessed 31", d)
	}
}
