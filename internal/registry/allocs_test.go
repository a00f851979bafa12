//go:build !race

package registry

import (
	"fmt"
	"testing"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// TestMatchIDsAllocs pins what an indexed match allocates — the bs-relay
// benchmark's registry.match_ids_allocs, a share of its
// allocs_per_delivery: in a 256-member cell a one-team selector costs
// the result slice, sized from the previous match, and nothing per
// shard (each index shard owns its predicate-split scratch).  IDs costs
// its one result.  Excluded under -race: the detector's instrumentation
// allocates.
func TestMatchIDsAllocs(t *testing.T) {
	r := New(0)
	for i := 0; i < 256; i++ {
		p := profile.New(fmt.Sprintf("m-%d-%02d", i/32, i%32))
		p.Interests.SetString("team", fmt.Sprintf("t%d", i/32))
		r.Put(p)
	}
	sel := selector.MustCompile(`team == "t3"`)
	if got := len(r.MatchIDs(sel)); got != 32 { // also drains the join-time dirty set
		t.Fatalf("matched %d members, want 32", got)
	}
	if n := testing.AllocsPerRun(200, func() { r.MatchIDs(sel) }); n > 4 {
		t.Errorf("MatchIDs allocates %g times, want <= 4", n)
	} else {
		t.Logf("MatchIDs: %g allocations", n)
	}
	// A conjunction takes the counting path and its scratch.
	both := selector.MustCompile(`team == "t3" and exists(team)`)
	r.MatchIDs(both)
	if n := testing.AllocsPerRun(200, func() { r.MatchIDs(both) }); n > 4 {
		t.Errorf("MatchIDs of a conjunction allocates %g times, want <= 4", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.IDs() }); n > 1 {
		t.Errorf("IDs allocates %g times, want 1", n)
	}
}
