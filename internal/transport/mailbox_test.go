package transport

import (
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"adaptiveqos/internal/clock"
)

// onEachMailbox runs f once per substrate whose nodes keep a mailbox —
// a SimNet node, a DESNet node before anything Serves it, a UDP socket
// — with b sending to a.  settle lets the network deliver what was
// sent: it drives a DESNet's clock, and on UDP, where datagrams arrive
// on the socket's own goroutine, waits until queued packets wait for a
// (queued < 0: it returns at once).
func onEachMailbox(t *testing.T, f func(t *testing.T, a, b Conn, settle func(queued int))) {
	onEachDriver(t, SimNetConfig{}, func(t *testing.T, n *testNet) {
		c := n.attach("a", "b")
		f(t, c[0], c[1], func(int) { n.pass(0) })
	})
	t.Run("udp", func(t *testing.T) {
		tr := NewUDPTransport()
		a, err := tr.Listen("a", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := tr.Listen("b", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		u := a.(*udpConn)
		f(t, a, b, func(queued int) {
			t.Helper()
			for deadline := time.Now().Add(2 * time.Second); queued >= 0; time.Sleep(time.Millisecond) {
				u.mu.Lock()
				got := len(u.box.queue) + len(u.box.ch)
				u.mu.Unlock()
				if got == queued {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d packets wait for a, want %d", got, queued)
				}
			}
		})
	})
}

// sendTo unicasts each payload from b to a, in order.
func sendTo(t *testing.T, b Conn, payloads ...string) {
	t.Helper()
	for _, s := range payloads {
		if err := b.Unicast("a", []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
}

// payloads lists what pkts carry.
func payloads(pkts []Packet) []string {
	out := make([]string, len(pkts))
	for i, p := range pkts {
		out[i] = string(p.Data)
	}
	return out
}

// TestMailboxOverflowAtDepth: an inbox holds exactly InboxDepth
// packets.  The next one is counted in Stats.Overflow and traced as an
// overflow, and the ones it holds come out of Recv in arrival order.
func TestMailboxOverflowAtDepth(t *testing.T) {
	const depth = 3
	onEachDriver(t, SimNetConfig{InboxDepth: depth}, func(t *testing.T, n *testNet) {
		var mu sync.Mutex
		var kinds []TraceKind
		n.SetTrace(func(ev TraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			kinds = append(kinds, ev.Kind)
		})
		c := n.attach("a", "b")
		for i := 0; i <= depth; i++ {
			c[0].Unicast("b", []byte{'0' + byte(i)})
		}
		n.pass(0)
		if got, want := n.Stats("b"), (Stats{Delivered: depth, Overflow: 1, Bytes: depth}); got != want {
			t.Errorf("stats %+v, want %+v", got, want)
		}
		mu.Lock()
		if want := []TraceKind{TraceDeliver, TraceDeliver, TraceDeliver, TraceOverflow}; !slices.Equal(kinds, want) {
			t.Errorf("traced %v, want %v", kinds, want)
		}
		mu.Unlock()
		if got := payloads(n.collect(c[1], depth, 0)); !slices.Equal(got, []string{"0", "1", "2"}) {
			t.Errorf("received %q", got)
		}
		n.quiet(c[1], 0)
	})
}

// TestMailboxServeTakesEarlyArrivalsFirst: packets that reached a node
// before Serve are handled first, in arrival order, then the ones after.
func TestMailboxServeTakesEarlyArrivalsFirst(t *testing.T) {
	onEachMailbox(t, func(t *testing.T, a, b Conn, settle func(int)) {
		sendTo(t, b, "1", "2", "3")
		settle(3)
		handled := make(chan Packet, 4)
		stop := Serve(a, 0, func(p Packet) { handled <- p }, nil)
		sendTo(t, b, "4")
		settle(-1)
		if got := payloads(collect(t, handled, 4, 2*time.Second)); !slices.Equal(got, []string{"1", "2", "3", "4"}) {
			t.Errorf("handled %q", got)
		}
		a.Close()
		stop()
	})
}

// TestMailboxFirstRecv: packets queued before the first Recv come out
// of its channel first, in arrival order, then the ones after.
func TestMailboxFirstRecv(t *testing.T) {
	onEachMailbox(t, func(t *testing.T, a, b Conn, settle func(int)) {
		sendTo(t, b, "1", "2", "3")
		settle(3)
		ch := a.Recv()
		sendTo(t, b, "4")
		settle(-1)
		if got := payloads(collect(t, ch, 4, 2*time.Second)); !slices.Equal(got, []string{"1", "2", "3", "4"}) {
			t.Errorf("received %q", got)
		}
	})
}

// TestMailboxRecvAfterClose: a Recv after Close yields what was queued,
// then reports the conn closed.
func TestMailboxRecvAfterClose(t *testing.T) {
	onEachMailbox(t, func(t *testing.T, a, b Conn, settle func(int)) {
		sendTo(t, b, "1", "2")
		settle(2)
		a.Close()
		if got := payloads(collect(t, a.Recv(), 3, 2*time.Second)); !slices.Equal(got, []string{"1", "2"}) {
			t.Errorf("received %q after Close", got)
		}
		if _, ok := <-a.Recv(); ok {
			t.Error("Recv still open after Close")
		}
	})
}

// TestMailboxStopHandlesQueued: on the wall clock, packets queued while
// Serve's goroutine is busy are still handled after the conn closes,
// and stop returns only once they have been.
func TestMailboxStopHandlesQueued(t *testing.T) {
	onEachMailbox(t, func(t *testing.T, a, b Conn, settle func(int)) {
		if _, virtual := a.Clock().(*clock.Virtual); virtual {
			return // inline: nothing is ever queued behind the handler
		}
		entered, release := make(chan struct{}), make(chan struct{})
		var handled []string // Serve's goroutine writes it; read after stop
		stop := Serve(a, 0, func(p Packet) {
			if string(p.Data) == "1" {
				close(entered)
				<-release
			}
			handled = append(handled, string(p.Data))
		}, nil)
		sendTo(t, b, "1")
		<-entered
		sendTo(t, b, "2", "3")
		settle(2)
		a.Close()
		stopped := make(chan struct{})
		go func() {
			stop()
			close(stopped)
		}()
		select {
		case <-stopped:
			t.Fatal("stop returned while a packet was being handled")
		case <-time.After(10 * time.Millisecond):
		}
		close(release)
		<-stopped
		if want := []string{"1", "2", "3"}; !slices.Equal(handled, want) {
			t.Errorf("handled %q by stop, want %q", handled, want)
		}
	})
}

// TestNodeSize: sim-lecture attaches 10k nodes, and a node past 96 B
// moves to the 128 B size class, a third more for every one of them.
// The mailbox hangs off a pointer so that it does not.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 96 {
		t.Errorf("node is %d B, want at most 96", size)
	}
}
