package session

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Concurrency control: arbitration when multiple clients concurrently
// manipulate the same set of shared objects.  A client acquires the
// lock on an object before mutating it; competing clients queue FIFO,
// so no concurrent update is silently lost.

// Concurrency errors.
var (
	ErrLockHeld  = errors.New("session: object lock held by another client")
	ErrNotHolder = errors.New("session: client does not hold the lock")
)

// ObjectLocks arbitrates exclusive access to named shared objects.  The
// zero value is an empty lock table.
type ObjectLocks struct {
	mu    sync.Mutex
	locks map[string]*lockState
}

type lockState struct {
	holder  string
	waiters []string
}

// TryAcquire attempts to take the lock on object for client.  If the
// lock is free (or already held by the same client) it succeeds;
// otherwise the client is appended to the FIFO wait queue (once) and
// ErrLockHeld is returned.
func (l *ObjectLocks) TryAcquire(object, client string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.locks[object]
	if !ok {
		if l.locks == nil {
			l.locks = make(map[string]*lockState)
		}
		l.locks[object] = &lockState{holder: client}
		return nil
	}
	if st.holder == "" {
		st.holder = client
		return nil
	}
	if st.holder == client {
		return nil // re-entrant
	}
	if !slices.Contains(st.waiters, client) {
		st.waiters = append(st.waiters, client)
	}
	return fmt.Errorf("%w: %q (queued)", ErrLockHeld, st.holder)
}

// Release gives up the lock; the first waiter (if any) becomes the new
// holder, and its ID is returned so the arbiter can notify it.  A
// queued waiter that releases withdraws from the queue, and next is "".
func (l *ObjectLocks) Release(object, client string) (next string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.locks[object]
	if !ok {
		return "", fmt.Errorf("%w: %s/%s", ErrNotHolder, object, client)
	}
	if st.holder != client {
		i := slices.Index(st.waiters, client)
		if i < 0 {
			return "", fmt.Errorf("%w: %s/%s", ErrNotHolder, object, client)
		}
		st.waiters = slices.Delete(st.waiters, i, i+1)
		return "", nil
	}
	if len(st.waiters) > 0 {
		st.holder = st.waiters[0]
		st.waiters = st.waiters[1:]
		return st.holder, nil
	}
	delete(l.locks, object)
	return "", nil
}

// Holder reports the current holder of an object's lock ("" if free).
func (l *ObjectLocks) Holder(object string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.locks[object]; ok {
		return st.holder
	}
	return ""
}
