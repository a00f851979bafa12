package core

import (
	"sync"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
)

// Distributed concurrency control: clients request exclusive locks on
// shared objects from the session coordinator, which arbitrates with a
// FIFO queue (session.ObjectLocks).  When two users select the same
// information for sharing at the same time, arbitration ensures no
// information is lost: one edits, the other queues.

// Lock-protocol control vocabulary.
const (
	ctrlLockRequest = "lock-request"
	ctrlLockRelease = "lock-release"
	ctrlLockGrant   = "lock-grant"
	ctrlLockWait    = "lock-wait"
	attrObject      = "object"
	attrHolder      = "holder"
)

// LockStatus is a client's view of one object lock.
type LockStatus string

// Lock states as seen by a client.
const (
	// LockNone: this client holds no claim on the object.
	LockNone LockStatus = ""
	// LockPending: a request is in flight.
	LockPending LockStatus = "pending"
	// LockWaiting: the coordinator queued this client behind a holder.
	LockWaiting LockStatus = "waiting"
	// LockGranted: this client holds the lock.
	LockGranted LockStatus = "granted"
)

// lockTable is the client-side lock view.
type lockTable struct {
	mu     sync.Mutex
	states map[string]LockStatus
}

func (lt *lockTable) set(object string, st LockStatus) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if st == LockNone {
		delete(lt.states, object)
	} else {
		lt.states[object] = st
	}
}

// notice installs a coordinator's notice, unless this client holds no
// claim on the object: a notice that reaches it after it released or
// withdrew is stale.
func (lt *lockTable) notice(object string, st LockStatus) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if _, ok := lt.states[object]; ok {
		lt.states[object] = st
	}
}

func (lt *lockTable) get(object string) LockStatus {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.states[object]
}

// LockState reports this client's standing on an object lock.
func (c *Client) LockState(object string) LockStatus {
	return c.locks.get(object)
}

func (c *Client) sendLockControl(coordinator, ctrl, object string) error {
	m := &message.Message{
		Kind:      message.KindControl,
		Sender:    c.ID(),
		Seq:       c.k.ctrlSeq.Add(1),
		Timestamp: c.clk.Now(),
	}
	m.SetAttrs([]message.Attr{
		{Name: attrCtrl, Value: selector.S(ctrl)},
		{Name: attrObject, Value: selector.S(object)},
	})
	return c.k.tx.Deliver(coordinator, m)
}

// RequestLock asks the coordinator for the exclusive lock on object.
// The outcome arrives asynchronously (LockState): either
// LockGranted or LockWaiting behind the current holder.
func (c *Client) RequestLock(coordinator, object string) error {
	c.locks.set(object, LockPending)
	return c.sendLockControl(coordinator, ctrlLockRequest, object)
}

// ReleaseLock gives the lock back, or withdraws this client from the
// queue; the coordinator promotes the first waiter, if any.
func (c *Client) ReleaseLock(coordinator, object string) error {
	c.locks.set(object, LockNone)
	return c.sendLockControl(coordinator, ctrlLockRelease, object)
}

// handleLockControl processes coordinator → client lock notifications.
func (c *Client) handleLockControl(m *message.Message) bool {
	ctrl, ok := m.Attr(attrCtrl)
	if !ok {
		return false
	}
	object, _ := m.Attr(attrObject)
	switch ctrl.Str() {
	case ctrlLockGrant:
		c.locks.notice(object.Str(), LockGranted)
		return true
	case ctrlLockWait:
		c.locks.notice(object.Str(), LockWaiting)
		return true
	default:
		return false
	}
}
