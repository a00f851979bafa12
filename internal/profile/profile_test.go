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

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Len() != 0 {
		t.Fatal("fresh registry not empty")
	}
	a := New("a")
	a.Interests.SetString("media", "image")
	b := New("b")
	b.Interests.SetString("media", "text")
	r.Put(a)
	r.Put(b)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}

	got, ok := r.Get("a")
	if !ok || got.ID != "a" {
		t.Fatal("Get(a) failed")
	}
	got.Interests.SetString("media", "hacked")
	again, _ := r.Get("a")
	if again.Interests["media"].Str() != "image" {
		t.Error("Get must return an independent copy")
	}

	matched := r.MatchIDs(selector.MustCompile(`media == "image"`))
	if len(matched) != 1 || matched[0] != "a" {
		t.Errorf("MatchIDs = %v", matched)
	}

	if _, err := r.UpdateStates("a", []StateKV{{Name: "sir", V: selector.N(7.5)}}); err != nil {
		t.Fatal(err)
	}
	p, _ := r.Get("a")
	if p.State["sir"].Num() != 7.5 || p.Version != 1 {
		t.Errorf("UpdateStates result: %v", p)
	}
	if _, err := r.UpdateStates("missing", []StateKV{{Name: "x", V: selector.N(0)}}); err == nil {
		t.Error("UpdateStates on unknown client should fail")
	}

	ids := r.IDs()
	if len(ids) != 2 {
		t.Errorf("IDs = %v", ids)
	}
	if !r.Remove("a") || r.Remove("a") {
		t.Error("Remove semantics broken")
	}
	if r.Len() != 1 {
		t.Errorf("Len after remove = %d", r.Len())
	}
}

// TestRegistryPutLiteralProfile: a profile built as a literal leaves its
// sections nil; the registry must still be able to write state into it.
func TestRegistryPutLiteralProfile(t *testing.T) {
	r := NewRegistry()
	r.Put(&Profile{ID: "thin"})
	if changed, err := r.UpdateStates("thin", []StateKV{{Name: "sir", V: selector.N(3)}}); err != nil || !changed {
		t.Fatalf("UpdateStates on a literal profile: changed=%v err=%v", changed, err)
	}
	p, _ := r.Get("thin")
	p.Interests["media"] = selector.S("text") // Get hands out writable sections
	if p.State["sir"].Num() != 3 {
		t.Errorf("state = %v", p.State)
	}
}
