//go:build !race

package core

import (
	"testing"

	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// Allocation pins for the receive kernel (DESIGN.md §7), the budget
// behind chat-wired's allocs_per_delivery: every endpoint of a session
// receives every frame, so a frame an endpoint rejects — filtered by
// its profile, its own echo, a duplicate the order buffer has already
// released — must cost it no allocation at all, and one it admits only
// the message handed to Deliver (one allocation holding the message and
// its attributes; its body is the datagram's).
// Excluded under -race: the detector's instrumentation allocates.
func TestKernelReceiveAllocs(t *testing.T) {
	pin := func(name string, r *viewRig, pkt transport.Packet, max float64) {
		t.Helper()
		r.k.HandlePacket(pkt) // warm: selector cache, flat profile, intern table
		n := testing.AllocsPerRun(200, func() { r.k.HandlePacket(pkt) })
		t.Logf("%s: %g allocations per datagram", name, n)
		if n > max {
			t.Errorf("%s: %g allocations per datagram, want <= %g", name, n, max)
		}
	}

	r := newViewRig(t, "recv", false)
	r.k.Deliver = nil // the pin is the kernel's, not the test's bookkeeping
	r.k.pm.SetInterest("topic", selector.S("a"))
	pin("filtered", r, r.say("pub", 1, `topic == "b"`), 0)
	pin("self-delivery", r, r.say("recv", 1, ""), 0)
	pin("admitted Say", r, r.say("pub", 1, `topic == "a"`), 1)

	rep := newViewRig(t, "recv", true)
	rep.k.Deliver = nil
	pin("duplicate, repair on", rep, rep.say("pub", 1, ""), 0)
	if next, _ := rep.k.order["pub"].buf.Gap(); next != 2 {
		t.Fatalf("order buffer waiting for %d, want 2: the duplicates were not duplicates", next)
	}
}
