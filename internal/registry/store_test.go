package registry

import (
	"fmt"
	"sync"
	"testing"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

func TestRegistry(t *testing.T) {
	r := New()
	if len(r.IDs()) != 0 {
		t.Fatal("fresh registry not empty")
	}
	a := profile.New("a")
	a.Interests.SetString("media", "image")
	b := profile.New("b")
	b.Interests.SetString("media", "text")
	r.Put(a)
	r.Put(b)
	if n := len(r.IDs()); n != 2 {
		t.Fatalf("IDs = %d entries", n)
	}

	// Put stores a copy: the caller's profile stays its own.
	a.Interests.SetString("media", "hacked")
	matched := r.MatchIDs(selector.MustCompile(`media == "image"`))
	if len(matched) != 1 || matched[0] != "a" {
		t.Errorf("MatchIDs = %v", matched)
	}

	if err := r.UpdateStates("a", []profile.StateKV{{Name: "sir", V: selector.N(7.5)}}); err != nil {
		t.Fatal(err)
	}
	if flat, ver, _ := r.FlatSnapshot("a"); flat["state.sir"].Num() != 7.5 || ver != 1 {
		t.Errorf("UpdateStates result: v%d %v", ver, flat)
	}
	if err := r.UpdateStates("missing", []profile.StateKV{{Name: "x", V: selector.N(0)}}); err == nil {
		t.Error("UpdateStates on unknown client should fail")
	}
	if r.Update("missing", func(*profile.Profile) { t.Error("Update ran for an unknown client") }) {
		t.Error("Update on unknown client reported ok")
	}

	if ids := r.IDs(); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("IDs = %v", ids)
	}
	if !r.Remove("a") || r.Remove("a") {
		t.Error("Remove semantics broken")
	}
	if n := len(r.IDs()); n != 1 {
		t.Errorf("IDs after remove = %d entries", n)
	}
}

// TestRegistryPutLiteralProfile: a profile built as a literal leaves its
// sections nil; the registry must still be able to write state and
// announced interests into it.
func TestRegistryPutLiteralProfile(t *testing.T) {
	r := New()
	r.Put(&profile.Profile{ID: "thin"})
	if err := r.UpdateStates("thin", []profile.StateKV{{Name: "sir", V: selector.N(3)}}); err != nil {
		t.Fatalf("UpdateStates on a literal profile: %v", err)
	}
	if !r.Update("thin", func(p *profile.Profile) { p.Interests["media"] = selector.S("text") }) {
		t.Fatal("Update on a literal profile reported an unknown client")
	}
	flat, ver, _ := r.FlatSnapshot("thin")
	if flat["state.sir"].Num() != 3 || flat["interest.media"].Str() != "text" || ver != 2 {
		t.Errorf("v%d %v", ver, flat)
	}
}

func TestRegistryFlatSnapshot(t *testing.T) {
	r := New()
	p := profile.New("a")
	p.Interests.SetString("media", "image")
	r.Put(p)

	flat1, v1, ok := r.FlatSnapshot("a")
	if !ok || flat1["media"].Str() != "image" {
		t.Fatalf("FlatSnapshot = %v %d %v", flat1, v1, ok)
	}
	flat2, _, _ := r.FlatSnapshot("a")
	if fmt.Sprintf("%p", flat1) != fmt.Sprintf("%p", flat2) {
		t.Error("repeated FlatSnapshot rebuilt the flattened view")
	}

	// UpdateStates with a new value invalidates; equal value does not.
	if err := r.UpdateStates("a", []profile.StateKV{{Name: "sir", V: selector.N(9)}}); err != nil {
		t.Fatal(err)
	}
	flat3, v3, _ := r.FlatSnapshot("a")
	if v3 <= v1 || flat3["state.sir"].Num() != 9 {
		t.Fatalf("post-update snapshot: v=%d flat=%v", v3, flat3)
	}
	if _, ok := flat1["state.sir"]; ok {
		t.Error("old snapshot mutated in place")
	}
	if err := r.UpdateStates("a", []profile.StateKV{{Name: "sir", V: selector.N(9)}}); err != nil {
		t.Fatal(err)
	}
	flat4, v4, _ := r.FlatSnapshot("a")
	if v4 != v3 {
		t.Error("equal-value UpdateStates bumped the version")
	}
	if fmt.Sprintf("%p", flat3) != fmt.Sprintf("%p", flat4) {
		t.Error("equal-value UpdateStates invalidated the flattened view")
	}

	if _, _, ok := r.FlatSnapshot("missing"); ok {
		t.Error("FlatSnapshot of unknown client reported ok")
	}
	r.Remove("a")
	if _, _, ok := r.FlatSnapshot("a"); ok {
		t.Error("FlatSnapshot after Remove reported ok")
	}
}

// Concurrent writers (UpdateStates, Update) and flat readers must be
// race-free (run under -race), and a reader never sees a member's
// version go backwards.
func TestRegistryFlatSnapshotConcurrent(t *testing.T) {
	r := New()
	for i := 0; i < 8; i++ {
		r.Put(profile.New(fmt.Sprintf("c%d", i)))
	}
	ids := r.IDs()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w+i)%len(ids)]
				if i%4 == 0 {
					r.Update(id, func(p *profile.Profile) { p.Interests.SetNumber("w", float64(w)) })
				} else if err := r.UpdateStates(id, []profile.StateKV{{Name: "sir", V: selector.N(float64(i % 7))}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := make(map[string]uint64)
			for i := 0; i < 500; i++ {
				id := ids[(w+i)%len(ids)]
				flat, ver, ok := r.FlatSnapshot(id)
				if !ok || flat["client"].Str() != id {
					t.Errorf("inconsistent snapshot for %s", id)
					return
				}
				if ver < last[id] {
					t.Errorf("%s: version went backwards %d → %d", id, last[id], ver)
					return
				}
				last[id] = ver
			}
		}(w)
	}
	wg.Wait()
}
