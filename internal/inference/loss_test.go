package inference

import (
	"testing"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
)

func TestPacketsFromLoss(t *testing.T) {
	cases := []struct {
		loss float64
		want int
	}{
		{-0.5, 16},
		{0, 16},
		{0.25, 12},
		{0.5, 8},
		{0.9, 1},
		{1, 0},
		{1.5, 0},
	}
	for _, tc := range cases {
		if got := (Params{MaxPackets: 16}).PacketsFromLoss(tc.loss); got != tc.want {
			t.Errorf("PacketsFromLoss(%g) = %d, want %d", tc.loss, got, tc.want)
		}
	}
	if (Params{}).PacketsFromLoss(0) != 16 {
		t.Error("default maxPackets")
	}
	// Monotone non-increasing.
	prev := 17
	for l := 0.0; l <= 1.0; l += 0.05 {
		got := (Params{MaxPackets: 16}).PacketsFromLoss(l)
		if got > prev {
			t.Fatalf("loss %g: budget rose %d -> %d", l, prev, got)
		}
		prev = got
	}
}

func TestLossRules(t *testing.T) {
	e := New("", nil, clock.Wall)

	// Moderate loss constrains the budget without changing modality.
	d := e.Decide(st(StateLoss, 0.25))
	if got := d.EffectiveBudget(16); got != 12 {
		t.Errorf("budget at 25%% loss = %d, want 12", got)
	}
	if d.Modality != "" {
		t.Errorf("modality at 25%% loss = %q", d.Modality)
	}

	// Heavy loss degrades modality to sketch.
	d = e.Decide(st(StateLoss, 0.6))
	if d.Modality != media.KindSketch {
		t.Errorf("modality at 60%% loss = %q, want sketch", d.Modality)
	}
	if got := d.EffectiveBudget(16); got != 6 {
		t.Errorf("budget at 60%% loss = %d, want 6", got)
	}

	// Loss composes with CPU pressure by minimum.
	d = e.Decide(st(StateLoss, 0.25, StateCPULoad, 95))
	cpuBudget := (Params{MaxPackets: 16}).PacketsFromCPULoad(95)
	if got := d.EffectiveBudget(16); got != cpuBudget {
		t.Errorf("composed budget = %d, want %d (cpu tighter)", got, cpuBudget)
	}

	// A text-tier bandwidth rule outranks the loss sketch rule.
	d = e.Decide(st(StateLoss, 0.6, StateBandwidth, 10_000))
	if d.Modality != media.KindText {
		t.Errorf("modality with text bandwidth + heavy loss = %q, want text", d.Modality)
	}
}
