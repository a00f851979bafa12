//go:build !race

package session

import "testing"

// TestOrderBufferInOrderPushAllocs: an event that arrives in order is
// released at once in the buffer's own slice, so on a session with no
// loss the order buffer costs a receiver nothing per event.
// Excluded under -race: the detector's instrumentation allocates.
func TestOrderBufferInOrderPushAllocs(t *testing.T) {
	b := NewOrderBuffer(0)
	seq := uint64(1)
	push := func() {
		if out := b.Push(Event{Seq: seq, Sender: "pub"}); len(out) != 1 || out[0].Seq != seq {
			t.Fatalf("push %d released %v", seq, out)
		}
		seq++
	}
	push() // the first release sizes the slice
	if n := testing.AllocsPerRun(200, push); n != 0 {
		t.Errorf("an in-order Push allocates %g times, want 0", n)
	}
}
