package session

import (
	"errors"
	"fmt"
	"sync"
)

// Concurrency control: arbitration and consistency maintenance when
// multiple clients concurrently manipulate the same set of shared
// objects.  Two complementary mechanisms are provided, matching
// centralized and optimistic styles:
//
//   - ObjectLocks: explicit arbitration.  A client acquires the lock
//     on an object before mutating it; competing clients queue FIFO.
//   - VersionStore: optimistic control.  Updates carry the base
//     version they were computed against; a stale base is rejected and
//     the client rebases, so no concurrent update is silently lost.

// Concurrency errors.
var (
	ErrLockHeld  = errors.New("session: object lock held by another client")
	ErrNotHolder = errors.New("session: client does not hold the lock")
	ErrStale     = errors.New("session: update based on a stale version")
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
	for _, w := range st.waiters {
		if w == client {
			return fmt.Errorf("%w: %q (queued)", ErrLockHeld, st.holder)
		}
	}
	st.waiters = append(st.waiters, client)
	return fmt.Errorf("%w: %q (queued)", ErrLockHeld, st.holder)
}

// Release gives up the lock; the first waiter (if any) becomes the new
// holder, and its ID is returned so the arbiter can notify it.
func (l *ObjectLocks) Release(object, client string) (next string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.locks[object]
	if !ok || st.holder != client {
		return "", fmt.Errorf("%w: %s/%s", ErrNotHolder, object, client)
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

// VersionedObject is the stored state of one shared object under
// optimistic control.
type VersionedObject struct {
	Version uint64
	Data    []byte
	Writer  string // client that wrote this version
}

// VersionStore applies optimistic concurrency control to shared
// objects: an update is accepted only when computed against the
// current version, so two users selecting information for sharing at
// the same time cannot silently overwrite each other — the loser is
// told to rebase, and no information is lost.
type VersionStore struct {
	mu      sync.RWMutex
	objects map[string]VersionedObject
}

// NewVersionStore returns an empty store.
func NewVersionStore() *VersionStore {
	return &VersionStore{objects: make(map[string]VersionedObject)}
}

// Get returns the current state of an object (zero-version empty
// object if never written).
func (v *VersionStore) Get(object string) VersionedObject {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.objects[object]
}

// Update installs new data computed against baseVersion.  It returns
// the new version, or ErrStale (with the current state) when another
// client committed in between.
func (v *VersionStore) Update(object, client string, baseVersion uint64, data []byte) (VersionedObject, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.objects[object]
	if cur.Version != baseVersion {
		return cur, fmt.Errorf("%w: %s at v%d, update based on v%d", ErrStale, object, cur.Version, baseVersion)
	}
	next := VersionedObject{
		Version: cur.Version + 1,
		Data:    append([]byte(nil), data...),
		Writer:  client,
	}
	v.objects[object] = next
	return next, nil
}
