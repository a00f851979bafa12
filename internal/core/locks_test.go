package core

import (
	"testing"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
)

// lockRig seats the coordinator, alice and bob; step delivers what a
// lock call sent and everything it set off.
func lockRig(t *testing.T) (coord *Coordinator, a, b *Client, step func(error)) {
	t.Helper()
	net := newVNet(t, 61)
	coord = net.coordinator(session.Group{Objective: "locks"})
	a, b = net.client("alice", Config{}), net.client("bob", Config{})
	return coord, a, b, func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		net.settle()
	}
}

func checkLock(t *testing.T, c *Client, object string, want LockStatus) {
	t.Helper()
	if got := c.LockState(object); got != want {
		t.Fatalf("%s sees %q on %s, want %q", c.ID(), got, object, want)
	}
}

func TestDistributedLockGrantAndQueue(t *testing.T) {
	_, a, b, step := lockRig(t)

	checkLock(t, a, "img-1", LockNone)
	step(a.RequestLock("coordinator", "img-1"))
	checkLock(t, a, "img-1", LockGranted)

	// Contention: bob queues behind alice.
	step(b.RequestLock("coordinator", "img-1"))
	checkLock(t, b, "img-1", LockWaiting)

	// Release promotes bob.
	step(a.ReleaseLock("coordinator", "img-1"))
	checkLock(t, b, "img-1", LockGranted)
	checkLock(t, a, "img-1", LockNone)

	// Independent object: no contention.
	step(a.RequestLock("coordinator", "img-2"))
	checkLock(t, a, "img-2", LockGranted)
}

// TestLockNoticesNumbered: the coordinator numbers its lock notices, so
// each is its own message with its own trace, not one seq shared by
// every notice.
func TestLockNoticesNumbered(t *testing.T) {
	_, a, b, step := lockRig(t)
	var seqs []uint32
	for _, c := range []*Client{a, b} {
		control := c.k.Control
		c.k.Control = func(m *message.Message) {
			if m.Sender == "coordinator" {
				seqs = append(seqs, m.Seq)
			}
			control(m)
		}
	}
	step(a.RequestLock("coordinator", "x")) // alice granted
	step(b.RequestLock("coordinator", "x")) // bob waits
	step(a.ReleaseLock("coordinator", "x")) // bob granted
	if len(seqs) != 3 {
		t.Fatalf("heard %d lock notices, want 3", len(seqs))
	}
	ids := make(map[uint64]uint32)
	for _, seq := range seqs {
		id := obs.MsgID("coordinator", seq)
		if prev, dup := ids[id]; dup {
			t.Fatalf("notices seq=%d and seq=%d share trace id %x (seqs %v)", prev, seq, id, seqs)
		}
		ids[id] = seq
	}
}

func TestReleaseByNonHolderIgnored(t *testing.T) {
	coord, a, b, step := lockRig(t)
	step(a.RequestLock("coordinator", "x"))
	checkLock(t, a, "x", LockGranted)

	// Bob releasing a lock he does not hold changes nothing at the
	// coordinator.
	step(b.ReleaseLock("coordinator", "x"))
	if h := coord.k.locks.Holder("x"); h != "alice" {
		t.Errorf("coordinator sees %q holding x, want alice", h)
	}
}

// TestWithdrawnWaiterIsNotGranted: a queued client that gives up leaves
// the coordinator's queue, so the holder's release frees the lock
// rather than handing it to a client that will never release it; and a
// grant that reaches a client holding no claim is stale and ignored.
func TestWithdrawnWaiterIsNotGranted(t *testing.T) {
	coord, a, b, step := lockRig(t)

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
