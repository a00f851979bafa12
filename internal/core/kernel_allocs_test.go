//go:build !race

package core

import (
	"testing"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// Allocation pins for the receive kernel (DESIGN.md §7), the budget
// behind chat-wired's allocs_per_delivery: every endpoint of a session
// receives every frame, so a frame an endpoint rejects — filtered by
// its profile, its own echo, a duplicate the order buffer has already
// released — must cost it no allocation at all, and one it admits none
// either: the message Deliver is handed is the kernel's own, lent for
// the call (its body is the datagram's), and the frames an order buffer
// releases come back in the buffer's own slice.
// Excluded under -race: the detector's instrumentation allocates.
func TestKernelReceiveAllocs(t *testing.T) {
	const runs = 200
	pin := func(name string, each func(i int), max float64) {
		t.Helper()
		i := 0
		n := testing.AllocsPerRun(runs, func() { each(i); i++ })
		t.Logf("%s: %g allocations per run", name, n)
		if n > max {
			t.Errorf("%s: %g allocations per run, want <= %g", name, n, max)
		}
	}
	same := func(r *viewRig, pkt transport.Packet) func(int) {
		r.k.HandlePacket(pkt) // warm: selector cache, flat profile, intern table
		return func(int) { r.k.HandlePacket(pkt) }
	}
	var delivered int
	count := func(*message.Message) { delivered++ }

	r := newViewRig(t, "recv", false)
	r.k.Deliver = nil // the pin is the kernel's, not the test's bookkeeping
	r.k.pm.SetInterest("topic", selector.S("a"))
	pin("filtered", same(r, r.say("pub", 1, `topic == "b"`)), 0)
	pin("self-delivery", same(r, r.say("recv", 1, "")), 0)
	pin("admitted Say", same(r, r.say("pub", 1, `topic == "a"`)), 0)

	rep := newViewRig(t, "recv", true)
	rep.k.Deliver = nil
	pin("duplicate, repair on", same(rep, rep.say("pub", 1, "")), 0)
	if next, _ := rep.k.order["pub"].buf.Gap(); next != 2 {
		t.Fatalf("order buffer waiting for %d, want 2: the duplicates were not duplicates", next)
	}

	// With repair on, every run is a fresh frame: the next in order, or
	// a pair whose second fills the gap the first left.  The frames are
	// built beforehand; AllocsPerRun makes one warming run.
	frames := func(r *viewRig, n int) []transport.Packet {
		pkts := make([]transport.Packet, n)
		for i := range pkts {
			pkts[i] = r.say("pub", uint32(i+1), "")
		}
		return pkts
	}
	inOrder := newViewRig(t, "recv", true)
	inOrder.k.Deliver = count
	pkts := frames(inOrder, runs+1)
	pin("admitted, repair on, in order", func(i int) { inOrder.k.HandlePacket(pkts[i]) }, 0)
	if delivered != runs+1 {
		t.Errorf("in order: %d delivered, want %d", delivered, runs+1)
	}

	delivered = 0
	gaps := newViewRig(t, "recv", true)
	gaps.k.Deliver = count
	pkts = frames(gaps, 2*(runs+1))
	pin("gap filled, two released", func(i int) {
		gaps.k.HandlePacket(pkts[2*i+1]) // parks behind the gap at 2i+1
		gaps.k.HandlePacket(pkts[2*i])   // fills it: both are released
	}, 0)
	if delivered != 2*(runs+1) {
		t.Errorf("gap filled: %d delivered, want %d", delivered, 2*(runs+1))
	}
}
