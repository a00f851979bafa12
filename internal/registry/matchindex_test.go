package registry

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// populate installs n clients with a media interest cycling over four
// values and a region interest with the given cardinality.
func populate(r *Registry, n, regions int) {
	medias := []string{"video", "audio", "image", "text"}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		p := profile.New(id)
		p.Interests.SetString("media", medias[i%len(medias)])
		p.Interests.SetNumber("region", float64(i%regions))
		p.Interests.SetNumber("size", float64((i%100)*1000))
		r.Put(p)
	}
}

func sortedIDs(ids []string) []string { sort.Strings(ids); return ids }

func TestMatchIDsIndexAgreesWithBrute(t *testing.T) {
	indexed := NewWithIndex(true)
	brute := NewWithIndex(false)
	populate(indexed, 200, 25)
	populate(brute, 200, 25)
	if indexed.idx == nil || brute.idx != nil {
		t.Fatal("NewWithIndex wiring")
	}

	for _, src := range []string{
		`media == "video" and region == 3`,
		`media in ["audio", "image"] and size <= 20000`,
		`region >= 20 or media == "text"`,
		`exists(region) and not media == "video"`,
		`client like "w1?"`,
		`true`,
		`false`,
		`media == "nope"`,
	} {
		sel := selector.MustCompile(src)
		got := sortedIDs(indexed.MatchIDs(sel))
		want := sortedIDs(brute.MatchIDs(sel))
		if len(got) != len(want) {
			t.Errorf("%q: indexed %d ids, brute %d", src, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q: indexed[%d]=%s brute[%d]=%s", src, i, got[i], i, want[i])
				break
			}
		}
	}

	// MatchIDs(nil) is the whole population on both.
	if got := len(indexed.MatchIDs(nil)); got != 200 {
		t.Errorf("MatchIDs(nil) = %d ids", got)
	}
}

func TestMatchIDsSeesMutations(t *testing.T) {
	r := New()
	populate(r, 32, 8)
	sel := selector.MustCompile(`state.sir >= 0`)
	if got := r.MatchIDs(sel); len(got) != 0 {
		t.Fatalf("unexpected matches before assessments: %v", got)
	}

	if err := r.PutAssessment("w3", Assessment{SIRdB: 4, Power: 1, Distance: 10}); err != nil {
		t.Fatal(err)
	}
	if got := r.MatchIDs(sel); len(got) != 1 || got[0] != "w3" {
		t.Fatalf("after assessment: %v", got)
	}

	// Re-assessing the same geometry must not reindex (no version
	// bump), and a changed geometry must be re-observed.
	if err := r.PutAssessment("w3", Assessment{SIRdB: 4, Power: 1, Distance: 10}); err != nil {
		t.Fatal(err)
	}
	if err := r.PutAssessment("w3", Assessment{SIRdB: -7, Power: 1, Distance: 10}); err != nil {
		t.Fatal(err)
	}
	if got := r.MatchIDs(sel); len(got) != 0 {
		t.Fatalf("stale SIR still matching: %v", got)
	}

	// A wholesale Put with different interests under the same version
	// must be re-observed (Invalidate, not generation-checked).
	_, ver, _ := r.FlatSnapshot("w5")
	p := profile.New("w5")
	p.Interests.SetString("media", "replaced")
	p.Version = ver
	r.Put(p)
	if got := r.MatchIDs(selector.MustCompile(`media == "replaced"`)); len(got) != 1 || got[0] != "w5" {
		t.Fatalf("after Put: %v", got)
	}

	// Departure drops the postings.
	r.Remove("w5")
	if got := r.MatchIDs(selector.MustCompile(`media == "replaced"`)); len(got) != 0 {
		t.Fatalf("departed client still matching: %v", got)
	}
}

// TestMatchIDsConcurrentChurn races index-first matching against
// joins, departures, assessments and profile replacement; the race
// detector (ci.sh runs this with -race -count=1) is the assertion.
func TestMatchIDsConcurrentChurn(t *testing.T) {
	r := New()
	populate(r, 64, 8)
	sels := []*selector.Selector{
		selector.MustCompile(`media == "video" and region <= 3`),
		selector.MustCompile(`state.sir >= 0`),
		selector.MustCompile(`media in ["audio", "text"] or client like "w1*"`),
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("w%d", (g*16+i)%64)
				switch i % 5 {
				case 0:
					_ = r.PutAssessment(id, Assessment{SIRdB: float64(i%9 - 4), Power: 1, Distance: 50})
				case 1:
					r.Update(id, func(p *profile.Profile) { p.Interests.SetNumber("region", float64(i%8)) })
				case 2:
					r.Remove(id)
				case 3:
					p := profile.New(id)
					p.Interests.SetString("media", "video")
					p.Interests.SetNumber("region", float64(i%8))
					r.Put(p)
				default:
					_ = r.UpdateStates(id, []profile.StateKV{{Name: "sir", V: selector.N(float64(i % 7))}})
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				ids := r.MatchIDs(sels[(g+i)%len(sels)])
				for _, id := range ids {
					if id == "" {
						t.Error("empty id matched")
						return
					}
				}
			}
		}(g)
	}
	close(stop)
	wg.Wait()
}
