package basestation

import (
	"fmt"
	"testing"

	"adaptiveqos/internal/core"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/selector"
)

// joinWithMedia is joinWireless with an explicit media interest, so a
// selector can split the population.
func (r *rig) joinWithMedia(t *testing.T, id, media string) *core.Client {
	t.Helper()
	c := r.client(t, seat(t, r.radioNet, id))
	// The receiving endpoint filters by its own local profile too, so
	// the interest must live on both sides.
	c.Profile().SetInterest("media", selector.S(media))
	p := profile.New(id)
	p.Interests.SetString("media", media)
	if _, err := r.bs.Join(p, 50, 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRelaySelectorDeliveryIndexModes runs the same selector-addressed
// wired relay over the indexed registry the station builds (mode 0) and
// over the brute-force one the equivalence harnesses use as their
// oracle (mode 1, swapped in before anyone joins) and requires
// identical delivered sets: the index is a pruning pre-filter, never a
// semantic change (DESIGN.md §12).
func TestRelaySelectorDeliveryIndexModes(t *testing.T) {
	for mode, indexed := range []bool{true, false} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			r := newRig(t, Config{})
			if !indexed {
				r.bs.reg = registry.NewWithIndex(registry.DefaultShards, false)
			}
			video1 := r.joinWithMedia(t, "v1", "video")
			video2 := r.joinWithMedia(t, "v2", "video")
			audio := r.joinWithMedia(t, "a1", "audio")

			if err := r.wired.Say("field update", `media == "video"`); err != nil {
				t.Fatal(err)
			}
			r.settle()
			if video1.Chat().Len() != 1 || video2.Chat().Len() != 1 {
				t.Errorf("video members hold %d and %d lines, want 1 each", video1.Chat().Len(), video2.Chat().Len())
			}
			// The non-matching client stays silent.
			if n := audio.Chat().Len(); n != 0 {
				t.Errorf("non-matching client received %d chat lines", n)
			}

			// An unaddressed event reaches everyone in both modes.
			if err := r.wired.Say("to all", ""); err != nil {
				t.Fatal(err)
			}
			r.settle()
			if video1.Chat().Len() != 2 || video2.Chat().Len() != 2 || audio.Chat().Len() != 1 {
				t.Errorf("members hold %d, %d and %d lines, want 2, 2 and 1",
					video1.Chat().Len(), video2.Chat().Len(), audio.Chat().Len())
			}
		})
	}
}
