package core

import (
	"testing"

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
