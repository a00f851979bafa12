package transport

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
)

// TestConnClock: every conn reports its substrate's clock — a DESNet
// node the network's Virtual, whether the network was handed one or
// made its own, and a SimNet node or a UDP socket the wall clock — so a
// node built on a conn reads the time its packets arrive on.
func TestConnClock(t *testing.T) {
	given := clock.NewVirtual(time.Unix(100, 0))
	handed := NewDESNet(DESNetConfig{Clock: given})
	defer handed.Close()
	own := NewDESNet(DESNetConfig{})
	defer own.Close()
	sim := NewSimNet(SimNetConfig{})
	defer sim.Close()
	attach := func(n interface{ Attach(string) (Conn, error) }) Conn {
		t.Helper()
		c, err := n.Attach("a")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	udp, err := NewUDPTransport().Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	for _, tc := range []struct {
		name string
		conn Conn
		want clock.Clock
	}{
		{"DESNet given a clock", attach(handed), given},
		{"DESNet on its own clock", attach(own), own.virt},
		{"SimNet", attach(sim), clock.Wall},
		{"UDP", udp, clock.Wall},
	} {
		if got := tc.conn.Clock(); got != tc.want {
			t.Errorf("%s: Clock() is a %T that is not the substrate's %T", tc.name, got, tc.want)
		}
	}
}

// TestServeDESNetInline: a node served on a DESNet runs on the goroutine
// driving the clock — a packet that reached its inbox before Serve
// first, then each delivery as it fires — and polls on the virtual
// heap until its conn closes, after which the heap drains.
func TestServeDESNetInline(t *testing.T) {
	n := NewDESNet(DESNetConfig{})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	if err := b.Unicast("a", []byte("early")); err != nil {
		t.Fatal(err)
	}
	n.virt.Advance(0) // delivered into a's inbox: nobody serves a yet

	var log []string
	stop := Serve(a, 10*time.Millisecond,
		func(p Packet) { log = append(log, "handle "+string(p.Data)) },
		func(now time.Time) { log = append(log, "poll "+now.Sub(clock.DefaultEpoch).String()) })
	if err := b.Unicast("a", []byte("late")); err != nil {
		t.Fatal(err)
	}
	n.virt.Advance(25 * time.Millisecond)
	want := []string{"handle early", "handle late", "poll 10ms", "poll 20ms"}
	if len(log) != len(want) {
		t.Fatalf("log = %q, want %q", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %q, want %q", log, want)
		}
	}

	a.Close()
	stop()
	if fired := n.virt.RunUntilIdle(10); fired > 1 {
		t.Errorf("%d events fired after the conn closed, want at most the pending poll", fired)
	}
	if len(log) != len(want) {
		t.Errorf("ran after Close: %q", log[len(want):])
	}
}

// TestServeDESNetReleasesInbox: once Serve runs a DESNet node inline
// it lets the node's inbox go, since nothing reaches it any more.  The
// node still hands every packet to its handler, counts in Stats exactly
// as a channel-mode node hearing the same traffic, and closes cleanly.
func TestServeDESNetReleasesInbox(t *testing.T) {
	n := NewDESNet(DESNetConfig{})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	ref, _ := n.Attach("ref")
	send := func(s string) {
		t.Helper()
		if err := b.Multicast([]byte(s)); err != nil {
			t.Fatal(err)
		}
		n.virt.Advance(0)
	}
	send("early")
	var got []string
	Serve(a, 0, func(p Packet) { got = append(got, string(p.Data)) }, nil)
	if a.Recv() != nil {
		t.Error("a node served inline kept its inbox")
	}
	send("one")
	send("two")
	if want := []string{"early", "one", "two"}; !slices.Equal(got, want) {
		t.Fatalf("handled %q, want %q", got, want)
	}
	if sa, sr := n.Stats("a"), n.Stats("ref"); sa != sr || sa.Delivered != 3 || len(ref.Recv()) != 3 {
		t.Errorf("served node's stats %+v, channel-mode node's %+v", sa, sr)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	send("after")
	if len(got) != 3 {
		t.Errorf("handled after Close: %q", got[3:])
	}
}

// TestServeWall: on a SimNet Serve reads on its own goroutine and polls
// on a wall ticker, and stop, once the conn is closed, leaves neither
// goroutine behind.
func TestServeWall(t *testing.T) {
	n := NewSimNet(SimNetConfig{})
	defer n.Close()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	before := runtime.NumGoroutine()
	got, polled := make(chan string, 1), make(chan time.Time, 1)
	served := time.Now()
	stop := Serve(a, time.Millisecond, func(p Packet) { got <- string(p.Data) }, func(now time.Time) {
		select {
		case polled <- now:
		default: // an earlier tick is still unread
		}
	})
	if err := b.Multicast([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != "hi" {
		t.Fatalf("handled %q", s)
	}
	if now := <-polled; now.Before(served) {
		t.Fatalf("polled at %v, before Serve was called at %v", now, served)
	}
	a.Close()
	stop()
	stop()
	// A goroutine that has returned may be counted a moment longer.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after stop, %d before Serve", runtime.NumGoroutine(), before)
		}
	}
}
