//go:build !race

package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The send path's allocation counts are end-to-end benchmark budgets
// (bench/: sim-lecture and bs-relay allocs_per_delivery).  These pins
// hold them in `go test` at exactly what the engine does, for both
// send contracts: a copying send costs the one clone of its frame more
// than a Give of the same frame.  Excluded under -race: the detector's
// instrumentation allocates.

const allocFanOut = 16

// pinAllocs requires send to allocate exactly want times per call.
func pinAllocs(t *testing.T, what string, want float64, send func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, send); got != want {
		t.Errorf("%s: %.1f allocs, pinned at %.0f", what, got, want)
	}
}

// TestVirtualMulticastAllocs: a virtual send is one batch on the clock,
// so it costs the same at any fan-out.
func TestVirtualMulticastAllocs(t *testing.T) {
	for _, fan := range []int{allocFanOut, 256} {
		n := NewDESNet(DESNetConfig{})
		defer n.Close()
		src, err := n.AttachHandler("src", func(Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fan; i++ {
			if _, err := n.AttachHandler(fmt.Sprintf("dst-%03d", i), func(Packet) {}); err != nil {
				t.Fatal(err)
			}
		}
		frame := make([]byte, 64)
		// Four per send: the fanout record, its recipient list, the
		// clock's batch and the batch's item list.
		pinAllocs(t, fmt.Sprintf("virtual Give to %d handlers", fan), 4, func() {
			src.Give("", frame)
			n.virt.Advance(time.Millisecond)
		})
		pinAllocs(t, fmt.Sprintf("virtual Multicast to %d handlers", fan), 5, func() {
			src.Multicast(frame)
			n.virt.Advance(time.Millisecond)
		})
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

	pinAllocs(t, "wall zero-delay Give to one inbox", 0, func() {
		src.Give("dst-00", frame)
		drain()
	})
	pinAllocs(t, "wall zero-delay Unicast", 1, func() {
		src.Unicast("dst-00", frame)
		drain()
	})
	// A group send past eight recipients grows its list of synchronous
	// deliveries off the stack once.
	pinAllocs(t, "wall zero-delay Give to 16 inboxes", 1, func() {
		src.Give("", frame)
		drain()
	})
	pinAllocs(t, "wall zero-delay Multicast to 16 inboxes", 2, func() {
		src.Multicast(frame)
		drain()
	})
}

// TestWallDelayedAllocs: a delayed delivery is an entry held by value in
// the engine's deadline queue, so it costs what the zero-delay path
// costs, less the list of synchronous deliveries a group send grows.
// Each send is drained through the queue and the dispatcher, so what
// they allocate is counted too.
func TestWallDelayedAllocs(t *testing.T) {
	n := NewSimNet(SimNetConfig{InboxDepth: 4, DefaultLink: Link{Delay: time.Microsecond}})
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
	wait := n.drainer()
	drain := func() {
		wait()
		for _, d := range dsts {
			for len(d.Recv()) > 0 {
				<-d.Recv()
			}
		}
	}
	frame := make([]byte, 64)

	pinAllocs(t, "wall delayed Give to one inbox", 0, func() {
		src.Give("dst-00", frame)
		drain()
	})
	pinAllocs(t, "wall delayed Unicast", 1, func() {
		src.Unicast("dst-00", frame)
		drain()
	})
	pinAllocs(t, "wall delayed Give to 16 inboxes", 0, func() {
		src.Give("", frame)
		drain()
	})
	pinAllocs(t, "wall delayed Multicast to 16 inboxes", 1, func() {
		src.Multicast(frame)
		drain()
	})
}

// TestWallServedAllocs: Serve's wall loop takes each batch in exchange
// for the last one it emptied, so a group send to served nodes costs
// what it costs to inboxes read through Recv.
func TestWallServedAllocs(t *testing.T) {
	n := NewSimNet(SimNetConfig{InboxDepth: 4})
	defer n.Close()
	src, err := n.Attach("src")
	if err != nil {
		t.Fatal(err)
	}
	handled := make(chan struct{}, allocFanOut)
	for i := 0; i < allocFanOut; i++ {
		d, err := n.Attach(fmt.Sprintf("dst-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		stop := Serve(d, 0, func(Packet) { handled <- struct{}{} }, nil)
		defer stop()
		defer d.Close()
	}
	frame := make([]byte, 64)
	send := func(give bool) func() {
		return func() {
			if give {
				src.Give("", frame)
			} else {
				src.Multicast(frame)
			}
			for i := 0; i < allocFanOut; i++ {
				<-handled
			}
		}
	}
	// The first two sends grow each node's queue and its spare.
	send(true)()
	send(true)()
	pinAllocs(t, "wall zero-delay Give to 16 served nodes", 1, send(true))
	pinAllocs(t, "wall zero-delay Multicast to 16 served nodes", 2, send(false))
}

// TestIdleNodeHeap: an inbox costs what it holds, not its depth.  A
// served node that has received nothing holds the node, its mailbox and
// Serve's goroutine; the chan Packet of InboxDepth slots it was once
// given at attach was 295 KB at a depth of 4096.
func TestIdleNodeHeap(t *testing.T) {
	const nodes = 64
	n := NewSimNet(SimNetConfig{InboxDepth: 4096})
	defer n.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stops := make([]func(), nodes)
	for i := range stops {
		c, err := n.Attach(fmt.Sprintf("n%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		stops[i] = Serve(c, 0, func(Packet) {}, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / nodes; perNode > 4<<10 {
		t.Errorf("%d B of live heap per idle served node, want under 4 KB", perNode)
	}
	n.Close()
	for _, stop := range stops {
		stop()
	}
}
