package registry

import (
	"fmt"
	"sync"
	"testing"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

func TestShardRoundingAndRouting(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := len(New(tc.in).shards); got != tc.want {
			t.Errorf("New(%d) has %d shards, want %d", tc.in, got, tc.want)
		}
	}

	// A client's operations must all land on one shard: install via
	// Put, read via Has/FlatSnapshot, mutate via UpdateStates.
	r := New(8)
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("client-%d", i)
		p := profile.New(id)
		p.Interests.SetString("media", "any")
		r.Put(p)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d", r.Len())
	}
	if len(r.IDs()) != 100 {
		t.Fatalf("IDs = %d entries", len(r.IDs()))
	}
	if !r.Has("client-42") || r.Has("client-100") {
		t.Fatal("Has")
	}
	if err := r.UpdateStates("client-42", []profile.StateKV{{Name: "sir", V: selector.N(3.5)}}); err != nil {
		t.Fatal(err)
	}
	flat, _, ok := r.FlatSnapshot("client-42")
	if !ok || flat[profile.SectionState+".sir"].Num() != 3.5 {
		t.Fatalf("FlatSnapshot after update: %v %v", flat, ok)
	}
	if !r.Remove("client-42") || r.Remove("client-42") {
		t.Fatal("Remove semantics")
	}
	if r.Len() != 99 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
}

func TestPutAssessmentFoldsRadioState(t *testing.T) {
	r := New(4)
	r.Put(profile.New("w1"))
	if err := r.PutAssessment("w1", Assessment{SIRdB: -2.5, Power: 0.8, Distance: 120}); err != nil {
		t.Fatal(err)
	}
	flat, ver, ok := r.FlatSnapshot("w1")
	if !ok {
		t.Fatal("no snapshot")
	}
	if flat[profile.SectionState+"."+StateSIR].Num() != -2.5 ||
		flat[profile.SectionState+"."+StatePower].Num() != 0.8 ||
		flat[profile.SectionState+"."+StateDistance].Num() != 120 {
		t.Fatalf("radio state not folded: %v", flat)
	}
	// Re-asserting identical geometry must not bump the version (the
	// memoized flattened view stays valid on the relay fast path).
	if err := r.PutAssessment("w1", Assessment{SIRdB: -2.5, Power: 0.8, Distance: 120}); err != nil {
		t.Fatal(err)
	}
	if _, ver2, _ := r.FlatSnapshot("w1"); ver2 != ver {
		t.Fatalf("unchanged assessment bumped version %d → %d", ver, ver2)
	}
	// A moved client does bump it.
	if err := r.PutAssessment("w1", Assessment{SIRdB: -4, Power: 0.8, Distance: 200}); err != nil {
		t.Fatal(err)
	}
	if _, ver3, _ := r.FlatSnapshot("w1"); ver3 == ver {
		t.Fatal("changed assessment did not bump version")
	}
	if err := r.PutAssessment("ghost", Assessment{}); err == nil {
		t.Fatal("assessment of unknown client should fail")
	}
}

func TestMatchAllAcrossShards(t *testing.T) {
	r := New(8)
	for i := 0; i < 40; i++ {
		p := profile.New(fmt.Sprintf("c%d", i))
		if i%2 == 0 {
			p.Interests.SetString("media", "image")
		} else {
			p.Interests.SetString("media", "audio")
		}
		r.Put(p)
	}
	sel, err := selector.Compile(`interest.media == "image"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.MatchIDs(sel)); got != 20 {
		t.Fatalf("MatchIDs = %d, want 20", got)
	}
}

// Concurrent Join/Leave/Assess/FlatSnapshot across shards must be
// race-clean (run under -race in CI) and leave the registry coherent.
func TestConcurrentChurnAndAssess(t *testing.T) {
	r := New(8)
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-c%d", w, i)
				p := profile.New(id)
				p.Interests.SetString("media", "any")
				r.Put(p)
				if err := r.PutAssessment(id, Assessment{SIRdB: float64(i), Power: 1, Distance: 50}); err != nil {
					t.Error(err)
				}
				if _, _, ok := r.FlatSnapshot(id); !ok {
					t.Errorf("no snapshot for %s", id)
				}
				if i%3 == 0 {
					r.Remove(id)
				}
			}
		}(w)
	}
	// Readers sweep the whole population while the churn runs.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range r.IDs() {
					r.FlatSnapshot(id)
					r.Has(id)
				}
				r.Len()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := 0
	for w := 0; w < 8; w++ {
		for i := 0; i < perWorker; i++ {
			if i%3 != 0 {
				want++
			}
		}
	}
	if r.Len() != want {
		t.Fatalf("Len after churn = %d, want %d", r.Len(), want)
	}
}
