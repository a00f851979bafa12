package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/session"
)

// newTestCoordinator is a coordinator kernel on a conn that goes
// nowhere.
func newTestCoordinator() *CoordinatorKernel {
	return NewCoordinatorKernel(nullConn{"coordinator", clock.NewVirtual(time.Unix(0, 0))}, session.Group{Objective: "quick"})
}

// reorderSeq feeds the coordinator sender "s"'s frame seq and returns
// the seqs that archives.
func reorderSeq(t *testing.T, c *CoordinatorKernel, seq uint32) []uint32 {
	t.Helper()
	before := len(c.log)
	feed(t, c, "s", seq)
	var released []uint32
	for _, f := range c.log[before:] {
		released = append(released, f.senderSeq)
	}
	return released
}

// TestQuickCoordinatorReorder: for any permutation of a sender's
// sequence numbers (starting at 1), the coordinator archives them
// exactly once, in order.
func TestQuickCoordinatorReorder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60) // stay under the flush threshold
		c := newTestCoordinator()
		perm := r.Perm(n)
		var released []uint32
		for _, i := range perm {
			released = append(released, reorderSeq(t, c, uint32(i+1))...)
		}
		if len(released) != n {
			t.Logf("seed %d: released %d of %d", seed, len(released), n)
			return false
		}
		for i, seq := range released {
			if seq != uint32(i+1) {
				t.Logf("seed %d: out of order at %d: %v", seed, i, released)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoordinatorReorderWithLoss: when sequence numbers are
// missing (lost frames), the flush path still archives everything that
// arrived, in ascending order, once the pending buffer overflows.
func TestQuickCoordinatorReorderWithLoss(t *testing.T) {
	f := func(seed int64) bool {
		_ = seed // the scenario is deterministic; quick just repeats it
		c := newTestCoordinator()
		// Lose seq 1 so everything buffers until the flush threshold.
		n := maxStreamPending + 10
		var released []uint32
		for i := 2; i <= n+1; i++ {
			released = append(released, reorderSeq(t, c, uint32(i))...)
		}
		if len(released) != n {
			t.Logf("seed %d: released %d of %d after flush", seed, len(released), n)
			return false
		}
		for i := 1; i < len(released); i++ {
			if released[i] <= released[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
