//go:build !race

package transport

import (
	"fmt"
	"testing"
	"time"
)

// The send path's allocation counts are end-to-end benchmark budgets
// (bench/: sim-lecture and bs-relay allocs_per_delivery).  These pins
// hold them in `go test`: each limit is what the two-engine code
// before the fold allocated for the same call (measured there with
// this test at go1.24), so the shared engine may allocate less but
// never more.  Excluded under -race: the detector's instrumentation
// allocates.

const allocFanOut = 16

func TestVirtualMulticastAllocs(t *testing.T) {
	n := NewDESNet(DESNetConfig{})
	defer n.Close()
	src, err := n.AttachHandler("src", func(Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < allocFanOut; i++ {
		if _, err := n.AttachHandler(fmt.Sprintf("dst-%02d", i), func(Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	frame := make([]byte, 64)
	got := testing.AllocsPerRun(200, func() {
		src.Multicast(frame)
		n.Clock().Advance(time.Millisecond)
	})
	// Before the fold: frame copy + destination list + 3 per delivery
	// (the event, its heap entry, its Scheduled handle).
	if limit := float64(2 + 3*allocFanOut); got > limit {
		t.Errorf("virtual Multicast to %d handlers: %.1f allocs, limit %.0f", allocFanOut, got, limit)
	}
}

func TestWallZeroDelayAllocs(t *testing.T) {
	n := NewSimNet(SimNetConfig{InboxDepth: 4})
	defer n.Close()
	src, err := n.Attach("src")
	if err != nil {
		t.Fatal(err)
	}
	dsts := make([]Conn, allocFanOut)
	for i := range dsts {
		if dsts[i], err = n.Attach(fmt.Sprintf("dst-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() {
		for _, d := range dsts {
			for len(d.Recv()) > 0 {
				<-d.Recv()
			}
		}
	}
	frame := make([]byte, 64)

	got := testing.AllocsPerRun(200, func() {
		src.Unicast("dst-00", frame)
		drain()
	})
	// Before the fold: frame copy + delivery closure.
	if limit := 2.0; got > limit {
		t.Errorf("wall zero-delay Unicast: %.1f allocs, limit %.0f", got, limit)
	}

	got = testing.AllocsPerRun(200, func() {
		src.Multicast(frame)
		drain()
	})
	// Before the fold: destination list + (frame copy + closure) per
	// recipient.
	if limit := float64(1 + 2*allocFanOut); got > limit {
		t.Errorf("wall zero-delay Multicast to %d inboxes: %.1f allocs, limit %.0f", allocFanOut, got, limit)
	}
}
