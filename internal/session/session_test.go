package session

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

func member(id string, media string) *profile.Profile {
	p := profile.New(id)
	p.Interests.SetString("media", media)
	return p
}

func TestGroupFormation(t *testing.T) {
	g := Group{
		Objective:   "crisis-sector-7",
		ResultSpace: []string{"comments", "images"},
		Filter:      selector.MustCompile(`media in ["image", "text"]`),
	}
	if !g.Admits(member("a", "image")) {
		t.Error("image client should be admitted")
	}
	if g.Admits(member("b", "video")) {
		t.Error("video client should be filtered out")
	}
	if !g.Offers("images") || g.Offers("video-calls") {
		t.Error("result space")
	}
	open := Group{Objective: "open"}
	if !open.Admits(member("c", "anything")) {
		t.Error("nil filter admits everyone")
	}
}

func TestObjectLocks(t *testing.T) {
	var l ObjectLocks
	if err := l.TryAcquire("img-1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := l.TryAcquire("img-1", "a"); err != nil {
		t.Errorf("re-entrant acquire: %v", err)
	}
	if err := l.TryAcquire("img-1", "b"); !errors.Is(err, ErrLockHeld) {
		t.Errorf("contended acquire: %v", err)
	}
	if err := l.TryAcquire("img-1", "b"); !errors.Is(err, ErrLockHeld) {
		t.Errorf("repeat queue: %v", err)
	}
	if len(l.locks["img-1"].waiters) != 1 {
		t.Errorf("queue length = %d, want 1 (no duplicates)", len(l.locks["img-1"].waiters))
	}
	l.TryAcquire("img-1", "c")
	if l.Holder("img-1") != "a" || len(l.locks["img-1"].waiters) != 2 {
		t.Error("holder/queue state")
	}

	// FIFO handover.
	next, err := l.Release("img-1", "a")
	if err != nil || next != "b" {
		t.Errorf("release: next=%q, %v", next, err)
	}
	if l.Holder("img-1") != "b" {
		t.Error("handover")
	}
	if _, err := l.Release("img-1", "a"); !errors.Is(err, ErrNotHolder) {
		t.Errorf("release by non-holder: %v", err)
	}
	next, _ = l.Release("img-1", "b")
	if next != "c" {
		t.Errorf("second handover: %q", next)
	}
	next, _ = l.Release("img-1", "c")
	if next != "" || l.Holder("img-1") != "" {
		t.Error("final release should free the lock")
	}
	// A queued waiter that gives up leaves the queue: the holder's
	// release frees the lock instead of handing it over.
	l.TryAcquire("img-1", "a")
	l.TryAcquire("img-1", "b")
	if next, err := l.Release("img-1", "b"); err != nil || next != "" {
		t.Errorf("waiter withdraws: next=%q, %v", next, err)
	}
	if len(l.locks["img-1"].waiters) != 0 {
		t.Errorf("withdrawn waiter still queued: %v", l.locks["img-1"].waiters)
	}
	if next, _ := l.Release("img-1", "a"); next != "" || l.Holder("img-1") != "" {
		t.Errorf("release after withdrawal handed the lock to %q", next)
	}
	// Independent objects don't contend.
	l.TryAcquire("x", "a")
	if err := l.TryAcquire("y", "b"); err != nil {
		t.Errorf("independent lock: %v", err)
	}
}

func TestOrderBuffer(t *testing.T) {
	b := NewOrderBuffer(0)
	ev := func(seq uint64) Event { return Event{Seq: seq} }

	if out := b.Push(ev(2)); out != nil {
		t.Error("2 must wait for 1")
	}
	if w, parked := b.Gap(); w != 1 || parked != 1 {
		t.Errorf("gap: %d, %d", w, parked)
	}
	out := b.Push(ev(1))
	if len(out) != 2 || out[0].Seq != 1 || out[1].Seq != 2 {
		t.Errorf("release: %v", out)
	}
	// Duplicates and old events ignored.
	if out := b.Push(ev(1)); out != nil {
		t.Error("old event released")
	}
	// Join mid-session.
	b2 := NewOrderBuffer(10)
	if out := b2.Push(ev(11)); len(out) != 1 {
		t.Error("mid-session start")
	}
}

// TestQuickOrderBufferTotalOrder: any permutation of a sequence is
// released exactly once, in order.
func TestQuickOrderBufferTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		b := NewOrderBuffer(0)
		perm := r.Perm(n)
		var released []uint64
		for _, i := range perm {
			for _, ev := range b.Push(Event{Seq: uint64(i + 1)}) {
				released = append(released, ev.Seq)
			}
		}
		if len(released) != n {
			return false
		}
		for i, seq := range released {
			if seq != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
