package profile

import (
	"fmt"
	"sync"
	"testing"

	"adaptiveqos/internal/selector"
)

func TestManagerFlatSnapshotMemoization(t *testing.T) {
	m := NewManager("c1")
	m.SetInterest("media", selector.S("image"))

	flat1, gen1 := m.FlatSnapshot()
	flat2, gen2 := m.FlatSnapshot()
	if gen1 != gen2 {
		t.Fatalf("generation moved without a mutation: %d vs %d", gen1, gen2)
	}
	// Identity check: the memoized map is reused, not rebuilt.
	if fmt.Sprintf("%p", flat1) != fmt.Sprintf("%p", flat2) {
		t.Error("repeated FlatSnapshot rebuilt the flattened view")
	}
	if flat1["media"].Str() != "image" {
		t.Error("flattened view missing interest attribute")
	}

	// A mutation bumps the generation and is visible in the next
	// snapshot; the old snapshot is untouched (copy-on-write).
	m.SetState("cpu-load", selector.N(80))
	flat3, gen3 := m.FlatSnapshot()
	if gen3 <= gen1 {
		t.Errorf("generation did not advance: %d → %d", gen1, gen3)
	}
	if flat3["state.cpu-load"].Num() != 80 {
		t.Error("new snapshot missing mutated state")
	}
	if _, ok := flat1["state.cpu-load"]; ok {
		t.Error("old snapshot mutated in place")
	}
}

func TestManagerMatchesUsesMemoizedFlat(t *testing.T) {
	m := NewManager("c1")
	m.SetInterest("media", selector.S("image"))
	sel := selector.MustCompile(`media == "image" and client == "c1"`)
	matches := func() bool { // as the receive kernel evaluates a frame's selector
		flat, _ := m.FlatSnapshot()
		return sel.Matches(flat)
	}
	if !matches() {
		t.Fatal("expected match")
	}
	m.SetInterest("media", selector.S("text"))
	if matches() {
		t.Fatal("match survived an interest change")
	}
}

// Concurrent Update writers and FlatSnapshot readers must be race-free
// and readers must always observe an internally consistent snapshot
// (run under -race).
func TestManagerFlatSnapshotConcurrent(t *testing.T) {
	m := NewManager("c1")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				m.SetState(fmt.Sprintf("p%d", w), selector.N(float64(i)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for i := 0; i < 1000; i++ {
				flat, gen := m.FlatSnapshot()
				if gen < lastGen {
					t.Error("generation went backwards")
					return
				}
				lastGen = gen
				if flat["client"].Str() != "c1" {
					t.Error("snapshot missing identity attribute")
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := m.Snapshot().Version; v != 4*300 {
		t.Errorf("version = %d, want %d", v, 4*300)
	}
}
