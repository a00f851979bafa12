package transport

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// The two send contracts of Conn, held on both schedulers and on both
// of the wall scheduler's delivery paths (inside the send on a
// zero-delay link, from the deadline queue behind a delayed one).

var ownershipLinks = []struct {
	name string
	link Link
}{
	{"zero-delay", Link{}},
	{"delayed", Link{Delay: 2 * time.Millisecond}},
}

// TestCopyingSendsLeaveFrameWithCaller: Multicast and Unicast deliver
// what frame held when they were called, whatever the sender writes
// into it afterwards.
func TestCopyingSendsLeaveFrameWithCaller(t *testing.T) {
	for _, l := range ownershipLinks {
		t.Run(l.name, func(t *testing.T) {
			onEachDriver(t, SimNetConfig{DefaultLink: l.link}, func(t *testing.T, n *testNet) {
				conns := n.attach("a", "b", "src")
				a, b, src := conns[0], conns[1], conns[2]
				frame := []byte("x")
				if err := src.Multicast(frame); err != nil {
					t.Fatal(err)
				}
				frame[0] = 'y'
				if err := src.Unicast("a", frame); err != nil {
					t.Fatal(err)
				}
				frame[0] = 'z'
				atA := n.collect(a, 2, 50*time.Millisecond)
				if got := []string{string(atA[0].Data), string(atA[1].Data)}; !slices.Equal(got, []string{"x", "y"}) {
					t.Errorf("a reads %q after the sender reused its buffer, want x then y", got)
				}
				if got := n.collect(b, 1, 50*time.Millisecond)[0].Data; string(got) != "x" {
					t.Errorf("b reads %q after the sender reused its buffer, want x", got)
				}
			})
		})
	}
}

// TestGiveSharesTheSendersBuffer: Give copies nothing — every recipient
// of a group send, both arrivals of a duplicated delivery and each peer
// the frame is given to in turn hold the slice the sender handed over,
// and the trace hook is shown the same bytes.
func TestGiveSharesTheSendersBuffer(t *testing.T) {
	for _, l := range ownershipLinks {
		t.Run(l.name, func(t *testing.T) {
			link := l.link
			link.Duplicate = 1
			onEachDriver(t, SimNetConfig{DefaultLink: link}, func(t *testing.T, n *testNet) {
				var mu sync.Mutex
				var traced [][]byte
				n.SetTrace(func(ev TraceEvent) {
					mu.Lock()
					traced = append(traced, ev.Data)
					mu.Unlock()
				})
				conns := n.attach("a", "b", "src")
				a, b, src := conns[0], conns[1], conns[2]
				frame := []byte("frozen")
				if err := src.Give("", frame); err != nil {
					t.Fatal(err)
				}
				if err := src.Give("a", frame); err != nil {
					t.Fatal(err)
				}
				got := n.collect(a, 4, 50*time.Millisecond)
				got = append(got, n.collect(b, 2, 50*time.Millisecond)...)
				unicasts := 0
				for i, p := range got {
					if &p.Data[0] != &frame[0] || len(p.Data) != len(frame) {
						t.Errorf("packet %d is not the frame that was given", i)
					}
					if p.Unicast {
						unicasts++
					}
				}
				if unicasts != 2 {
					t.Errorf("%d unicast arrivals, want the two copies given to a", unicasts)
				}
				mu.Lock()
				defer mu.Unlock()
				if len(traced) != len(got) {
					t.Fatalf("%d trace events for %d deliveries", len(traced), len(got))
				}
				for i, d := range traced {
					if &d[0] != &frame[0] {
						t.Errorf("trace event %d does not carry the delivered bytes", i)
					}
				}
			})
		})
	}
}

// TestGiveChecksWhatTheCopyingSendsCheck: same MTU bound, same errors
// for a closed conn and an unknown peer, and it counts as one send.
func TestGiveChecksWhatTheCopyingSendsCheck(t *testing.T) {
	onEachDriver(t, SimNetConfig{MTU: 8}, func(t *testing.T, n *testNet) {
		conns := n.attach("a", "src")
		src := conns[1]
		if err := src.Give("", make([]byte, 9)); !errors.Is(err, ErrFrameSize) {
			t.Errorf("oversize Give: %v", err)
		}
		if err := src.Give("nobody", []byte("x")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Give to an unknown node: %v", err)
		}
		if err := src.Unicast("", []byte("x")); !errors.Is(err, ErrUnknownNode) {
			t.Errorf(`Unicast to "": %v`, err)
		}
		if err := src.Give("a", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if got := n.Stats("src").Sent; got != 2 {
			t.Errorf("Sent = %d, want 2: the send to nobody and the one to a", got)
		}
		src.Close()
		if err := src.Give("a", []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("Give on a closed conn: %v", err)
		}
	})
}

// TestSetTraceWhileSending installs and removes the hook while two
// senders run; under -race this is the check that the hook needs no
// engine lock to be read — by the senders, and on a delayed link by the
// dispatcher that the two senders' frames queue up for.
func TestSetTraceWhileSending(t *testing.T) {
	for _, l := range ownershipLinks {
		t.Run(l.name, func(t *testing.T) {
			link := l.link
			link.Loss = 0.2 // drops trace from the send side too
			setTraceWhileSending(t, NewSimNet(SimNetConfig{DefaultLink: link}))
		})
	}
}

func setTraceWhileSending(t *testing.T, n *SimNet) {
	defer n.Close()
	var seen sync.Map
	if _, err := n.attach("rx", func(Packet) {}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var senders sync.WaitGroup
	for _, id := range []string{"tx-0", "tx-1"} {
		c, err := n.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		senders.Add(1)
		go func() {
			defer senders.Done()
			frame := []byte(c.ID())
			for {
				select {
				case <-stop:
					return
				default:
					if err := c.Give("rx", frame); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		n.SetTrace(func(ev TraceEvent) { seen.Store(ev.From, true) })
		n.SetTrace(nil)
	}
	n.SetTrace(func(ev TraceEvent) { seen.Store(ev.From, true) })
	for _, id := range []string{"tx-0", "tx-1"} {
		for deadline := time.Now().Add(5 * time.Second); ; {
			if _, ok := seen.Load(id); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("an installed hook never saw %s", id)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stop)
	senders.Wait()
}
