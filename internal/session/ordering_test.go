package session

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOrderBufferLimitEvictsFarthest(t *testing.T) {
	b := NewOrderBuffer(0)
	b.SetLimit(3)
	ev := func(seq uint64) Event { return Event{Seq: seq} }
	// What the buffer holds, read through Holes and Gap: the holes
	// below the farthest parked event, the seq past it, and the count.
	holds := func(wantHoles []SeqRange, wantPast uint64, wantParked int) {
		t.Helper()
		holes, past := b.Holes(nil, 4)
		if _, parked := b.Gap(); !reflect.DeepEqual(holes, wantHoles) || past != wantPast || parked != wantParked {
			t.Fatalf("holes %v past %d with %d parked, want %v past %d with %d",
				holes, past, parked, wantHoles, wantPast, wantParked)
		}
	}

	// Seq 1 is missing; park 3 far-ahead events to fill the bound.
	for _, s := range []uint64{5, 3, 9} {
		if out := b.Push(ev(s)); out != nil {
			t.Fatalf("seq %d released across the gap", s)
		}
	}
	holds([]SeqRange{{1, 2}, {4, 4}, {6, 8}}, 10, 3)
	// A nearer event displaces the farthest parked one (9).
	if out := b.Push(ev(2)); out != nil {
		t.Fatal("2 released while 1 is missing")
	}
	holds([]SeqRange{{1, 1}, {4, 4}}, 6, 3)
	// A farther-than-everything event is rejected outright.
	if out := b.Push(ev(100)); out != nil {
		t.Fatal("100 released")
	}
	holds([]SeqRange{{1, 1}, {4, 4}}, 6, 3)
	// Duplicates of parked events never evict, not even when full.
	b.Push(ev(5))
	b.Push(ev(3))
	holds([]SeqRange{{1, 1}, {4, 4}}, 6, 3)
	// The missing seq is nearer than everything parked, so it too
	// evicts the farthest (5), and 1..3 come out in order.
	out := b.Push(ev(1))
	want := []uint64{1, 2, 3}
	if len(out) != len(want) {
		t.Fatalf("released %d events, want %d", len(out), len(want))
	}
	for i, ev := range out {
		if ev.Seq != want[i] {
			t.Errorf("release[%d] = %d, want %d", i, ev.Seq, want[i])
		}
	}
	holds(nil, 4, 0)
}

func TestOrderBufferSkip(t *testing.T) {
	b := NewOrderBuffer(0)
	ev := func(seq uint64) Event { return Event{Seq: seq} }

	// Nothing parked: Skip is a no-op.
	if rel, from, to := b.Skip(); rel != nil || from != to {
		t.Fatalf("empty skip = %v [%d,%d)", rel, from, to)
	}

	b.Push(ev(4))
	b.Push(ev(5))
	b.Push(ev(7))
	rel, from, to := b.Skip()
	if from != 1 || to != 4 {
		t.Fatalf("skipped [%d,%d), want [1,4)", from, to)
	}
	if len(rel) != 2 || rel[0].Seq != 4 || rel[1].Seq != 5 {
		t.Fatalf("released = %v, want seqs 4,5", rel)
	}
	if w, parked := b.Gap(); w != 6 || parked != 1 {
		t.Errorf("gap after skip = %d/%d, want 6/1", w, parked)
	}
	// The stream continues normally past the skipped range.
	if out := b.Push(ev(6)); len(out) != 2 || out[0].Seq != 6 || out[1].Seq != 7 {
		t.Errorf("post-skip release = %v", out)
	}
}

// orderModel is the brute-force reference for OrderBuffer: a set of
// parked sequence numbers and nothing else, every question answered
// by scanning it.
type orderModel struct {
	next   uint64
	parked map[uint64]bool
	limit  int
}

func (m *orderModel) farthest() (far uint64) {
	for s := range m.parked {
		far = max(far, s)
	}
	return far
}

func (m *orderModel) release() (out []uint64) {
	for m.parked[m.next] {
		delete(m.parked, m.next)
		out = append(out, m.next)
		m.next++
	}
	return out
}

// push returns the released seqs; a full model evicts the farthest of
// its parked seqs and seq.
func (m *orderModel) push(seq uint64) (released []uint64) {
	if seq < m.next {
		return nil
	}
	if !m.parked[seq] && len(m.parked) >= m.limit {
		far := m.farthest()
		if far < seq {
			return nil
		}
		delete(m.parked, far)
	}
	m.parked[seq] = true
	return m.release()
}

func (m *orderModel) skip() (released []uint64, from, to uint64) {
	from = m.next
	if len(m.parked) == 0 {
		return nil, from, from
	}
	to = m.farthest()
	for s := range m.parked {
		to = min(to, s)
	}
	m.next = to
	return m.release(), from, to
}

func (m *orderModel) holes(max int) (holes []SeqRange, past uint64) {
	past = m.next
	if far := m.farthest(); far >= past {
		past = far + 1
	}
	for s := m.next; s < past; s++ {
		if m.parked[s] {
			continue
		}
		if n := len(holes); n > 0 && holes[n-1].To == s-1 {
			holes[n-1].To = s
		} else if n < max {
			holes = append(holes, SeqRange{From: s, To: s})
		} else {
			break
		}
	}
	return holes, past
}

// TestQuickOrderBufferMatchesModel drives a limited buffer and the
// brute-force model through the same random pushes (in-order, ahead,
// duplicate, stale, far ahead so the limit evicts) and skips, and
// compares every release, gap and hole list.  The whole hole list, the
// bound past it and the parked count pin down which seqs are parked, so
// an eviction of the wrong seq shows there.
func TestQuickOrderBufferMatchesModel(t *testing.T) {
	seqsOf := func(evs []Event) (out []uint64) {
		for _, ev := range evs {
			out = append(out, ev.Seq)
		}
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		limit := 1 + r.Intn(12)
		b := NewOrderBuffer(0)
		b.SetLimit(limit)
		m := &orderModel{next: 1, parked: map[uint64]bool{}, limit: limit}
		for step := 0; step < 400; step++ {
			if r.Intn(10) == 0 {
				rel, from, to := b.Skip()
				wantRel, wantFrom, wantTo := m.skip()
				if !reflect.DeepEqual(seqsOf(rel), wantRel) || from != wantFrom || to != wantTo {
					t.Logf("seed %d step %d: skip = %v [%d,%d), model %v [%d,%d)",
						seed, step, seqsOf(rel), from, to, wantRel, wantFrom, wantTo)
					return false
				}
			} else {
				// Mostly near the gap, now and then behind it or far ahead.
				seq := m.next + uint64(r.Intn(2*limit+2))
				switch r.Intn(12) {
				case 0:
					seq = uint64(r.Intn(int(m.next)) + 1)
				case 1:
					seq = m.next + uint64(r.Intn(1000))
				}
				rel := b.Push(Event{Seq: seq})
				if wantRel := m.push(seq); !reflect.DeepEqual(seqsOf(rel), wantRel) {
					t.Logf("seed %d step %d: push %d = %v, model %v", seed, step, seq, seqsOf(rel), wantRel)
					return false
				}
			}
			if w, parked := b.Gap(); w != m.next || parked != len(m.parked) {
				t.Logf("seed %d step %d: gap = %d/%d, model %d/%d", seed, step, w, parked, m.next, len(m.parked))
				return false
			}
			// Every parked seq but the farthest closes a hole, so limit
			// holes are all of them.
			for _, max := range []int{r.Intn(limit + 2), limit} {
				holes, past := b.Holes(nil, max)
				wantHoles, wantPast := m.holes(max)
				if !reflect.DeepEqual(holes, wantHoles) || past != wantPast {
					t.Logf("seed %d step %d: holes(%d) = %v past %d, model %v past %d",
						seed, step, max, holes, past, wantHoles, wantPast)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderBufferReleaseReusesSlice: Push and Skip hand back the
// buffer's own slice, and a shorter release clears what a longer one
// left past its end, so a released event's payload does not stay
// reachable from the buffer.
func TestOrderBufferReleaseReusesSlice(t *testing.T) {
	b := NewOrderBuffer(0)
	ev := func(seq uint64) Event { return Event{Seq: seq, Payload: []byte{byte(seq)}} }
	b.Push(ev(2))
	b.Push(ev(3))
	three := b.Push(ev(1))
	if len(three) != 3 {
		t.Fatalf("released %d events, want 3", len(three))
	}
	b.Push(ev(6))
	one, from, to := b.Skip() // gives up 4 and 5
	if len(one) != 1 || one[0].Seq != 6 || from != 4 || to != 6 {
		t.Fatalf("skip released %v [%d,%d), want seq 6 [4,6)", one, from, to)
	}
	if &one[0] != &three[0] {
		t.Fatal("the skip's release is a new slice, want the buffer's own")
	}
	for i, e := range one[1:3] {
		if e.Seq != 0 || e.Payload != nil {
			t.Errorf("slot %d past the release still holds seq %d", i+1, e.Seq)
		}
	}
}
