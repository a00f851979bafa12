package core

import (
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

func lockRig(t *testing.T) (*Coordinator, *Client, *Client) {
	t.Helper()
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 61})
	t.Cleanup(net.Close)
	cc, _ := net.Attach("coordinator")
	coord := NewCoordinator(cc, session.Group{Objective: "locks"})
	t.Cleanup(func() { coord.Close() })
	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("bob")
	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{})
	t.Cleanup(func() { a.Close(); b.Close() })
	return coord, a, b
}

func waitLock(t *testing.T, c *Client, object string, want LockStatus) {
	t.Helper()
	waitFor(t, string(want)+" on "+object, func() bool {
		return c.LockState(object) == want
	})
}

func TestDistributedLockGrantAndQueue(t *testing.T) {
	_, a, b := lockRig(t)

	if a.LockState("img-1") != LockNone {
		t.Fatal("fresh state should be none")
	}
	if err := a.RequestLock("coordinator", "img-1"); err != nil {
		t.Fatal(err)
	}
	waitLock(t, a, "img-1", LockGranted)

	// Contention: bob queues behind alice.
	if err := b.RequestLock("coordinator", "img-1"); err != nil {
		t.Fatal(err)
	}
	waitLock(t, b, "img-1", LockWaiting)

	// Release promotes bob.
	if err := a.ReleaseLock("coordinator", "img-1"); err != nil {
		t.Fatal(err)
	}
	waitLock(t, b, "img-1", LockGranted)
	if a.LockState("img-1") != LockNone {
		t.Errorf("alice still sees %q", a.LockState("img-1"))
	}

	// Independent object: no contention.
	if err := a.RequestLock("coordinator", "img-2"); err != nil {
		t.Fatal(err)
	}
	waitLock(t, a, "img-2", LockGranted)
}

func TestReleaseByNonHolderIgnored(t *testing.T) {
	coord, a, b := lockRig(t)
	a.RequestLock("coordinator", "x")
	waitLock(t, a, "x", LockGranted)

	// Bob releasing a lock he does not hold changes nothing at the
	// coordinator.
	if err := b.ReleaseLock("coordinator", "x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "coordinator still sees alice", func() bool {
		return coord.k.locks.Holder("x") == "alice"
	})
}

// TestWithdrawnWaiterIsNotGranted: a queued client that gives up leaves
// the coordinator's queue, so the holder's release frees the lock
// rather than handing it to a client that will never release it; and a
// grant that reaches a client holding no claim is stale and ignored.
func TestWithdrawnWaiterIsNotGranted(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 61, Clock: clk})
	t.Cleanup(net.Close)
	attach := func(id string) transport.Conn {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	coord := NewCoordinatorClock(attach("coordinator"), session.Group{Objective: "locks"}, clk)
	a := NewClient(attach("alice"), Config{Clock: clk})
	b := NewClient(attach("bob"), Config{Clock: clk})
	t.Cleanup(func() { a.Close(); b.Close(); coord.Close() })
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		clk.RunUntilIdle(0)
	}

	step(a.RequestLock("coordinator", "x"))
	step(b.RequestLock("coordinator", "x"))
	if a.LockState("x") != LockGranted || b.LockState("x") != LockWaiting {
		t.Fatalf("alice %q, bob %q: want granted and waiting", a.LockState("x"), b.LockState("x"))
	}
	step(b.ReleaseLock("coordinator", "x"))
	step(a.ReleaseLock("coordinator", "x"))
	if h := coord.k.locks.Holder("x"); h != "" {
		t.Errorf("coordinator hands the lock to %q after its only waiter withdrew", h)
	}
	if b.LockState("x") != LockNone {
		t.Errorf("bob sees %q after withdrawing", b.LockState("x"))
	}

	// A grant already in flight when bob withdrew changes nothing.
	b.handleLockControl(&message.Message{Kind: message.KindControl, Sender: "coordinator", Attrs: selector.Attributes{
		attrCtrl: selector.S(ctrlLockGrant), attrObject: selector.S("x"), attrHolder: selector.S("bob"),
	}})
	if b.LockState("x") != LockNone {
		t.Errorf("a stale grant moved bob to %q", b.LockState("x"))
	}
}
