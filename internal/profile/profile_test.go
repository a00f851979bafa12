package profile

import (
	"sync"
	"testing"

	"adaptiveqos/internal/selector"
)

func TestFlattenAndMatch(t *testing.T) {
	p := New("clientA")
	p.Interests.SetString("media", "image")
	p.Preferences.SetString("modality", "speech")
	p.Capabilities.SetBool("display.color", true)
	p.State.SetNumber("cpu-load", 45)

	flat := p.Flatten()
	checks := map[string]selector.Value{
		"media":             selector.S("image"),
		"interest.media":    selector.S("image"),
		"modality":          selector.S("speech"),
		"pref.modality":     selector.S("speech"),
		"cap.display.color": selector.B(true),
		"state.cpu-load":    selector.N(45),
		"client":            selector.S("clientA"),
	}
	for k, want := range checks {
		got, ok := flat[k]
		if !ok || !got.Equal(want) {
			t.Errorf("Flatten()[%q] = %v (ok=%v), want %v", k, got, ok, want)
		}
	}

	if !p.Matches(selector.MustCompile(`media == "image" and state.cpu-load < 50`)) {
		t.Error("profile should match media/cpu selector")
	}
	if p.Matches(selector.MustCompile(`media == "video"`)) {
		t.Error("profile should not match video selector")
	}
	if !p.Matches(selector.MustCompile(`client == "clientA"`)) {
		t.Error("client pseudo-attribute should be matchable")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New("c")
	p.State.SetNumber("x", 1)
	c := p.Clone()
	c.State.SetNumber("x", 2)
	c.Interests.SetString("media", "text")
	if p.State["x"].Num() != 1 {
		t.Error("Clone shares State")
	}
	if _, ok := p.Interests["media"]; ok {
		t.Error("Clone shares Interests")
	}
}

func TestManagerUpdateVersioningAndWatch(t *testing.T) {
	m := NewManager("c1")
	if v := m.Snapshot().Version; v != 0 {
		t.Fatalf("initial version = %d", v)
	}

	snap := m.SetState("cpu-load", selector.N(80))
	if snap.Version != 1 {
		t.Errorf("version after one update = %d, want 1", snap.Version)
	}
	if snap.State["cpu-load"].Num() != 80 {
		t.Errorf("state after update = %v", snap.State)
	}

	// Identity cannot be mutated through Update.
	m.Update(func(p *Profile) { p.ID = "evil" })
	if got := m.Snapshot().ID; got != "c1" {
		t.Errorf("ID after hostile update = %q, want c1", got)
	}

	m.SetPreference("modality", selector.S("text"))
	m.SetInterest("media", selector.S("image"))
	final := m.Snapshot()
	if final.Version != 4 {
		t.Errorf("version = %d, want 4", final.Version)
	}
	if flat, _ := m.FlatSnapshot(); !selector.MustCompile(`media == "image" and modality == "text"`).Matches(flat) {
		t.Error("manager should match after updates")
	}
}

func TestManagerConcurrentUpdates(t *testing.T) {
	m := NewManager("c")
	var wg sync.WaitGroup
	const writers, perWriter = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.SetState("x", selector.N(float64(w*perWriter+i)))
			}
		}(w)
	}
	wg.Wait()
	if got := m.Snapshot().Version; got != writers*perWriter {
		t.Errorf("version = %d, want %d (lost updates)", got, writers*perWriter)
	}
}
