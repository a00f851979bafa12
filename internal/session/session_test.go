package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

func TestSessionMembership(t *testing.T) {
	s := New(Group{Objective: "o", Filter: selector.MustCompile(`media == "image"`)})
	a := member("a", "image")
	if err := s.Join(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(a); !errors.Is(err, ErrMember) {
		t.Errorf("double join: %v", err)
	}
	if err := s.Join(member("b", "video")); !errors.Is(err, ErrNotAdmitted) {
		t.Errorf("filtered join: %v", err)
	}
	if s.Members() != 1 {
		t.Error("membership state")
	}
}

func TestCommitAndHistory(t *testing.T) {
	s := New(Group{Objective: "o"})
	s.Join(member("a", "image"))
	s.Join(member("b", "image"))

	ev1, err := s.Commit("a", "chat", "", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	ev2, _ := s.Commit("b", "whiteboard", "stroke-1", []byte("line"))
	if ev1.Seq != 1 || ev2.Seq != 2 {
		t.Errorf("sequence: %d, %d", ev1.Seq, ev2.Seq)
	}
	if _, err := s.Commit("ghost", "chat", "", nil); !errors.Is(err, ErrNotMember) {
		t.Errorf("commit by non-member: %v", err)
	}

	// Late joiner catch-up.
	hist := s.History(0)
	if len(hist) != 2 || hist[0].Seq != 1 || string(hist[1].Payload) != "line" {
		t.Errorf("history: %v", hist)
	}
	if len(s.History(1)) != 1 || len(s.History(2)) != 0 || len(s.History(9)) != 0 {
		t.Error("partial history")
	}

	// Payload isolation.
	payload := []byte("mutate me")
	ev, _ := s.Commit("a", "chat", "", payload)
	payload[0] = 'X'
	if s.History(ev.Seq - 1)[0].Payload[0] == 'X' {
		t.Error("archive aliases caller payload")
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
	// Independent objects don't contend.
	l.TryAcquire("x", "a")
	if err := l.TryAcquire("y", "b"); err != nil {
		t.Errorf("independent lock: %v", err)
	}
}

func TestVersionStore(t *testing.T) {
	v := NewVersionStore()
	if got := v.Get("doc"); got.Version != 0 || got.Data != nil {
		t.Errorf("fresh object: %+v", got)
	}

	v1, err := v.Update("doc", "a", 0, []byte("first"))
	if err != nil || v1.Version != 1 {
		t.Fatalf("first update: %+v, %v", v1, err)
	}

	// Concurrent writer based on version 0 must be rejected — no
	// information is silently lost.
	cur, err := v.Update("doc", "b", 0, []byte("conflicting"))
	if !errors.Is(err, ErrStale) {
		t.Fatalf("stale update: %v", err)
	}
	if cur.Version != 1 || string(cur.Data) != "first" {
		t.Errorf("stale response carries current state: %+v", cur)
	}

	// Rebase and retry.
	v2, err := v.Update("doc", "b", cur.Version, []byte("merged"))
	if err != nil || v2.Version != 2 || v2.Writer != "b" {
		t.Errorf("rebased update: %+v, %v", v2, err)
	}
	if len(v.objects) != 1 {
		t.Errorf("objects = %d", len(v.objects))
	}
}

func TestVersionStoreConcurrentNoLostUpdate(t *testing.T) {
	v := NewVersionStore()
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	var accepted int64
	var mu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for {
					cur := v.Get("counter")
					_, err := v.Update("counter", fmt.Sprintf("w%d", w), cur.Version, []byte{byte(w)})
					if err == nil {
						mu.Lock()
						accepted++
						mu.Unlock()
						break
					}
					if !errors.Is(err, ErrStale) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	final := v.Get("counter")
	if final.Version != uint64(writers*perWriter) {
		t.Errorf("version = %d, want %d (every accepted update counted exactly once)",
			final.Version, writers*perWriter)
	}
	if accepted != writers*perWriter {
		t.Errorf("accepted = %d", accepted)
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

func TestLamportClock(t *testing.T) {
	var c LamportClock
	if c.Tick() != 1 || c.Tick() != 2 {
		t.Error("tick")
	}
	if got := c.Witness(10); got != 11 {
		t.Errorf("witness ahead = %d", got)
	}
	if got := c.Witness(3); got != 12 {
		t.Errorf("witness behind = %d", got)
	}
	if c.Now() != 12 {
		t.Error("now")
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

// TestQuickVersionStoreLinear: sequential updates with correct bases
// always succeed and versions increase by exactly one.
func TestQuickVersionStoreLinear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := NewVersionStore()
		var base uint64
		for i := 0; i < 1+r.Intn(50); i++ {
			next, err := v.Update("o", "w", base, []byte{byte(i)})
			if err != nil || next.Version != base+1 {
				return false
			}
			base = next.Version
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
